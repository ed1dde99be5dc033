from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from puzznic import engine, planner
from puzznic.engine import (
    EMPTY,
    LEFT,
    MAX_PATTERN,
    RIGHT,
    WALL,
    Grid,
    IllegalMove,
    Move,
    PositionNotPatterned,
    QuiescentState,
)


def make_grid(*rows: str) -> Grid:
    table = {"#": WALL, ".": EMPTY}
    return Grid(
        tuple(tuple(table.get(ch, ord(ch) - ord("0")) for ch in row) for row in rows)
    )


def empty_grid(height: int, width: int) -> Grid:
    return make_grid(
        "#" * width,
        *["#" + "." * (width - 2) + "#"] * (height - 2),
        "#" * width,
    )


@st.composite
def grids(draw, max_h: int = 8, max_w: int = 8, **kwargs):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return oracles.random_grid(random.Random(seed), max_h=max_h, max_w=max_w, **kwargs)


class TestGrid:
    def test_rejects_missing_perimeter(self):
        with pytest.raises(ValueError, match="perimeter"):
            Grid(((WALL, WALL, WALL), (WALL, EMPTY, EMPTY), (WALL, WALL, WALL)))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Grid(((WALL, WALL), (WALL, WALL)))

    def test_replace_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad cell value"):
            empty_grid(4, 4).replace({(2, 2): MAX_PATTERN + 1})

    @pytest.mark.parametrize("cell", [(0, 2), (2, 0), (5, 2), (2, 5)])
    def test_replace_rejects_cell_outside_grid(self, cell):
        with pytest.raises(ValueError, match="outside"):
            empty_grid(4, 4).replace({cell: 1})

    @pytest.mark.parametrize("cell", [(1, 2), (4, 3), (2, 1), (3, 4)])
    def test_replace_rejects_hole_in_perimeter(self, cell):
        with pytest.raises(ValueError, match="perimeter"):
            empty_grid(4, 4).replace({cell: EMPTY})

    def test_replace_writes_only_the_given_cells(self):
        g = empty_grid(4, 4).replace({(3, 2): 1, (2, 3): WALL})
        assert g == make_grid("####", "#.##", "#1.#", "####")

    def test_at_is_one_based(self):
        g = make_grid("###", "#.#", "###")
        assert g.at(1, 1) == WALL
        assert g.at(2, 2) == EMPTY


class TestSettle:
    def test_empty_interior_is_fixpoint(self):
        g = empty_grid(5, 5)
        out, fell = engine.settle(g)
        assert out == g and not fell

    def test_single_block_drops_to_floor(self):
        # derived with the one-cell fall oracle: (2,3) ends at (4,3)
        g = empty_grid(5, 5).replace({(2, 3): 1})
        out, fell = engine.settle(g)
        assert fell
        assert out == oracles.single_fall_fixpoint(g)
        assert out.at(4, 3) == 1 and out.at(2, 3) == EMPTY

    def test_supported_block_unchanged(self):
        g = empty_grid(5, 5).replace({(4, 3): 1})
        out, fell = engine.settle(g)
        assert out == g and not fell

    @settings(max_examples=80, deadline=None)
    @given(grids())
    def test_matches_single_cell_fall_oracle(self, g):
        out, fell = engine.settle(g)
        assert out == oracles.single_fall_fixpoint(g)
        assert fell == (out != g)

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_preserves_column_contents_and_order(self, g):
        out, _ = engine.settle(g)
        for c in range(1, g.width + 1):
            before = [g.at(r, c) for r in range(1, g.height + 1) if g.at(r, c) != EMPTY]
            after = [out.at(r, c) for r in range(1, out.height + 1) if out.at(r, c) != EMPTY]
            assert before == after  # multiset, order, and walls all preserved


class TestFindMatches:
    def test_horizontal_pair(self):
        g = empty_grid(5, 5).replace({(4, 3): 2, (4, 4): 2})
        assert engine.find_matches(g) == {(4, 3), (4, 4)}

    def test_different_patterns(self):
        g = empty_grid(5, 5).replace({(4, 3): 2, (4, 4): 3})
        assert engine.find_matches(g) == set()

    def test_l_shape_all_matched(self):
        g = empty_grid(6, 6).replace({(4, 3): 1, (5, 3): 1, (5, 4): 1})
        assert engine.find_matches(g) == {(4, 3), (5, 3), (5, 4)}

    @settings(max_examples=80, deadline=None)
    @given(grids())
    def test_equals_neighbour_scan(self, g):
        expected = {
            (r, c)
            for r, c in g.interior()
            if g.at(r, c) > EMPTY
            and any(g.at(r + dr, c + dc) == g.at(r, c) for dr, dc in oracles.NEIGHBOURS)
        }
        assert engine.find_matches(g) == expected
        floating = [(r, c) for r, c in g.interior() if g.at(r, c) > EMPTY and g.at(r + 1, c) == EMPTY]
        assert engine.find_unsettled(g) == (floating[0] if floating else None)


class TestRemoveMatches:
    def test_remove_nothing(self):
        g = empty_grid(5, 5).replace({(4, 3): 1})
        assert engine.remove_matches(g, set()) == g

    def test_remove_pair(self):
        g = empty_grid(5, 5).replace({(4, 3): 2, (4, 4): 2})
        out = engine.remove_matches(g, {(4, 3), (4, 4)})
        assert out.at(4, 3) == EMPTY and out.at(4, 4) == EMPTY

    def test_remove_wall_raises(self):
        g = empty_grid(5, 5)
        with pytest.raises(PositionNotPatterned):
            engine.remove_matches(g, {(1, 1)})

    @pytest.mark.parametrize("cell", [(-1, 4), (4, -1), (0, 4), (6, 4), (4, 6)])
    def test_cell_outside_the_grid_raises(self, cell):
        # negative indices would wrap onto the block at (4, 4)
        g = empty_grid(5, 5).replace({(4, 4): 1})
        with pytest.raises(PositionNotPatterned):
            engine.remove_matches(g, {cell})


class TestResolve:
    def test_quiescent_grid_emits_nothing(self):
        g = empty_grid(5, 5).replace({(4, 3): 1})
        state, events, matches = engine.resolve(g)
        assert state.grid == g and events == () and matches == 0

    def test_cascade_two_match_events(self):
        # one pair removed, the freed block drops onto its twin
        g = make_grid(
            "#######",
            "#..1..#",
            "#.122.#",
            "#######",
        )
        state, events, matches = engine.resolve(g)
        gq, om = oracles.single_action_resolve(g)
        assert matches == om == 2
        assert state.grid == gq
        assert engine.is_goal(state.grid)

    def test_single_match_then_quiescent(self):
        g = empty_grid(5, 5).replace({(4, 2): 1, (4, 3): 1})
        state, events, matches = engine.resolve(g)
        gq, om = oracles.single_action_resolve(g)
        assert matches == om == 1
        assert state.grid == gq

    @settings(max_examples=80, deadline=None)
    @given(grids())
    def test_matches_single_action_oracle(self, g):
        state, events, matches = engine.resolve(g)
        gq, om = oracles.single_action_resolve(g)
        assert state.grid == gq
        assert matches == om

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_state_passes_the_public_check(self, g):
        # resolve builds its state without re-checking the grid it settled
        state, _, _ = engine.resolve(g)
        assert QuiescentState(state.grid) == state
        assert hash(QuiescentState(state.grid)) == hash(state)

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_idempotent_on_quiescent(self, g):
        state, _, _ = engine.resolve(g)
        again, events, matches = engine.resolve(state.grid)
        assert again.grid == state.grid and events == () and matches == 0

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_match_events_remove_at_least_two(self, g):
        _, events, _ = engine.resolve(g)
        for e in events:
            if isinstance(e, engine.MatchEvent):
                assert len(e.removed) >= 2

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_trace_events_replayable(self, g):
        grid = g
        state, events, _ = engine.resolve(grid)
        assert engine.verify_trace(engine.Trace(initial=grid, events=events))


class TestLegalMoves:
    def test_goal_grid_has_none(self):
        state = QuiescentState(empty_grid(5, 5))
        assert engine.legal_moves(state) == ()

    def test_left_listed_before_right(self):
        state = QuiescentState(empty_grid(5, 5).replace({(4, 3): 1}))
        assert engine.legal_moves(state) == (Move(4, 3, LEFT), Move(4, 3, RIGHT))

    def test_walled_in_block_excluded(self):
        g = make_grid("#####", "##1##", "#####")
        state = QuiescentState(g)
        assert engine.legal_moves(state) == ()

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_canonical_order(self, g):
        state, _, _ = engine.resolve(g)
        moves = engine.legal_moves(state)
        keys = [(m.row, m.col, 0 if m.dir == LEFT else 1) for m in moves]
        assert keys == sorted(keys)


class TestApplyMove:
    def test_plain_slide(self):
        g = empty_grid(5, 5).replace({(4, 3): 1})
        state = QuiescentState(g)
        new, trace, matches = engine.apply_move(state, Move(4, 3, LEFT))
        assert new.grid.at(4, 2) == 1 and new.grid.at(4, 3) == EMPTY
        assert matches == 0
        assert trace.move_count == 1

    def test_stack_falls_into_vacated_cell(self):
        # moving the lower block of a two-stack drops the upper one
        g = make_grid("#####", "#.1.#", "#.2.#", "#####")
        state = QuiescentState(g)
        new, trace, _ = engine.apply_move(state, Move(3, 3, LEFT))
        assert new.grid.at(3, 2) == 2  # moved block
        assert new.grid.at(3, 3) == 1  # upper block fell one cell
        assert engine.verify_trace(trace)

    def test_fall_beside_twin_matches(self, corpus):
        lf = corpus["6x5-desk-pit"]
        state = QuiescentState(lf.grid)
        new, trace, matches = engine.apply_move(state, Move(2, 2, RIGHT))
        assert matches == 1
        assert engine.is_goal(new.grid)
        assert engine.verify_trace(trace)

    def test_illegal_move_rejected(self):
        g = empty_grid(5, 5).replace({(4, 3): 1})
        state = QuiescentState(g)
        with pytest.raises(IllegalMove):
            engine.apply_move(state, Move(4, 2, LEFT))  # source empty
        with pytest.raises(IllegalMove):
            engine.apply_move(state, Move(1, 1, RIGHT))  # perimeter
        g2 = g.replace({(4, 2): 2})
        with pytest.raises(IllegalMove):
            engine.apply_move(QuiescentState(g2), Move(4, 3, LEFT))  # target full

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.integers(min_value=0, max_value=10**9))
    def test_only_moved_block_changes_column(self, g, pick):
        state, _, _ = engine.resolve(g)
        moves = engine.legal_moves(state)
        if not moves:
            return
        move = moves[pick % len(moves)]
        new, _, _ = engine.apply_move(state, move)

        def col_census(grid):
            return {
                c: sorted(
                    grid.at(r, c) for r in range(1, grid.height + 1) if grid.at(r, c) > EMPTY
                )
                for c in range(1, grid.width + 1)
            }

        before, after = col_census(state.grid), col_census(new.grid)
        # blocks may vanish via matches, but survivors never change column
        # except the moved block, which moves exactly one column over
        for c in range(1, state.grid.width + 1):
            if c in (move.col, move.col + move.dir):
                continue
            assert set(after[c]) <= set(before[c])


class TestCascadeLocality:
    """`apply_move` settles and matches only near the move; its events must
    be those of the whole-grid `resolve` of the moved grid."""

    @staticmethod
    def check_every_move(state):
        for move in engine.legal_moves(state):
            new, trace, matches = engine.apply_move(state, move)
            moved = trace.events[0].after
            whole, events, whole_matches = engine.resolve(moved)
            assert trace.events[0] == engine.MoveEvent(move, moved)
            assert len(trace.events) == len(events) + 1
            for local, full in zip(trace.events[1:], events):
                assert local == full
            assert (new.grid, matches) == (whole.grid, whole_matches)
            assert engine.verify_trace(trace)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_playout_moves_equal_whole_grid_resolve(self, seed):
        # walls split columns into segments that settle apart
        rng = random.Random(seed)
        state = oracles.random_quiescent(rng, max_h=10, p_wall=0.2, p_block=0.45)
        for _ in range(4):
            self.check_every_move(state)
            moves = engine.legal_moves(state)
            if not moves:
                break
            state, _, _ = engine.apply_move(state, rng.choice(moves))

    def test_two_match_cascade(self, corpus):
        state = QuiescentState(corpus["7x6-desk-cascade"].grid)
        _, _, matches = engine.apply_move(state, Move(3, 5, LEFT))
        assert matches == 2
        self.check_every_move(state)


class TestVerifyTrace:
    # (3, 2) holds pattern 1 and (3, 3) pattern 2: settled, no match
    GRID = make_grid("#####", "#...#", "#12.#", "#####")

    @pytest.mark.parametrize(
        "event",
        [
            # each `after` is what applying the event blindly would give
            engine.MoveEvent(Move(3, 2, RIGHT), GRID.replace({(3, 2): EMPTY, (3, 3): 1})),
            engine.MoveEvent(Move(3, 4, LEFT), GRID.replace({(3, 3): EMPTY})),
            engine.MoveEvent(Move(9, 9, LEFT), GRID),
            engine.MatchEvent(frozenset({(3, 2), (3, 3)}), GRID.replace({(3, 2): 0, (3, 3): 0})),
            engine.MatchEvent(frozenset({(2, 2)}), GRID),
            engine.MatchEvent(frozenset(), GRID),
            engine.FallEvent(GRID),
        ],
        ids=["onto-block", "from-empty", "outside", "unlike", "empty-cell", "no-cells", "no-fall"],
    )
    def test_illegal_event_rejected(self, event):
        assert engine.verify_trace(engine.Trace(self.GRID, (event,))) is False

    def test_match_on_unsettled_grid_rejected(self):
        g = make_grid("#####", "#11.#", "#...#", "#####")
        event = engine.MatchEvent(frozenset({(2, 2), (2, 3)}), empty_grid(4, 5))
        assert engine.verify_trace(engine.Trace(g, (event,))) is False

    def test_match_of_part_of_the_matches_rejected(self):
        g = make_grid("#####", "#...#", "#111#", "#####")
        event = engine.MatchEvent(frozenset({(3, 2), (3, 3)}), g.replace({(3, 2): 0, (3, 3): 0}))
        assert engine.verify_trace(engine.Trace(g, (event,))) is False
        whole = engine.MatchEvent(frozenset({(3, 2), (3, 3), (3, 4)}), empty_grid(4, 5))
        assert engine.verify_trace(engine.Trace(g, (whole,)))

    def test_wrong_after_rejected(self):
        event = engine.MoveEvent(Move(3, 3, RIGHT), self.GRID)
        assert engine.verify_trace(engine.Trace(self.GRID, (event,))) is False

    def test_move_while_a_match_is_pending_rejected(self):
        # the first move leaves (3, 3) and (3, 4) matching: that match must
        # come before the next move
        g = make_grid("########", "#......#", "#1.1..2#", "########")
        first = g.replace({(3, 2): EMPTY, (3, 3): 1})
        second = first.replace({(3, 7): EMPTY, (3, 6): 2})
        moves = (Move(3, 2, RIGHT), Move(3, 7, LEFT))
        events = (engine.MoveEvent(moves[0], first), engine.MoveEvent(moves[1], second))
        assert engine.verify_trace(engine.Trace(g, events)) is False
        trace, _, _ = engine.replay(g, moves)
        assert trace.match_count == 1 and engine.verify_trace(trace)

    def test_trace_cut_mid_cascade_rejected(self, corpus):
        state = QuiescentState(corpus["7x6-desk-cascade"].grid)
        _, trace, matches = engine.apply_move(state, Move(3, 5, LEFT))
        assert matches == 2 and engine.verify_trace(trace)
        cut = engine.Trace(trace.initial, trace.events[:-1])
        assert engine.verify_trace(cut) is False

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_replay_resolves_its_start_grid(self, g):
        # grids() draws floating blocks and pending matches too
        state, events, _ = engine.resolve(g)
        assert engine.replay(g, ()) == (engine.Trace(g, events), None, None)
        moves = engine.legal_moves(state)[:1]
        step = engine.apply_move(state, moves[0])[1].events if moves else ()
        trace, bad, _ = engine.replay(g, moves)
        assert bad is None and trace.events == (*events, *step)
        assert engine.verify_trace(trace)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_playout_verifies_and_every_edit_is_rejected(self, seed):
        rng = random.Random(seed)
        state = oracles.random_quiescent(rng, p_wall=0.2, p_block=0.45)
        initial, events = state.grid, []
        for _ in range(6):
            moves = engine.legal_moves(state)
            if not moves:
                break
            state, trace, _ = engine.apply_move(state, rng.choice(moves))
            events.extend(trace.events)
        assert engine.verify_trace(engine.Trace(initial, tuple(events)))
        for i, event in enumerate(events):
            # only a last move with no cascade leaves a whole, shorter playout
            whole = i == len(events) - 1 and isinstance(event, engine.MoveEvent)
            dropped = (*events[:i], *events[i + 1 :])
            assert engine.verify_trace(engine.Trace(initial, dropped)) is whole
            for other in events:
                if other.after != event.after:
                    swapped = list(events)
                    swapped[i] = dataclasses.replace(event, after=other.after)
                    assert engine.verify_trace(engine.Trace(initial, tuple(swapped))) is False


class TestGoalsAndCensus:
    def test_goal_when_walls_and_empty_only(self):
        assert engine.is_goal(empty_grid(4, 7))

    def test_not_goal_with_block(self):
        assert not engine.is_goal(empty_grid(4, 7).replace({(2, 2): 1}))

    def test_a13_not_goal(self, a13):
        assert not engine.is_goal(a13.grid)

    def test_counts_goal_grid(self):
        assert engine.pattern_counts(empty_grid(5, 5)) == {}

    def test_counts_mixed(self):
        g = empty_grid(6, 8).replace({(5, 2): 1, (5, 3): 2, (5, 5): 2, (5, 6): 2, (4, 2): 1})
        assert engine.pattern_counts(g) == {1: 2, 2: 3}

    def test_counts_a13(self, a13):
        # two blocks of each of the three patterns in the bundled file
        by_id = engine.pattern_counts(a13.grid)
        by_char = {ch: by_id[pid] for ch, pid in a13.symbol_table.items()}
        assert by_char == {"R": 2, "P": 2, "B": 2}


class TestDeadEnd:
    def test_singleton_is_dead(self):
        assert engine.is_dead_end(empty_grid(5, 5).replace({(4, 2): 1}))

    def test_pair_is_not_dead(self):
        assert not engine.is_dead_end(empty_grid(5, 5).replace({(4, 2): 1, (4, 4): 1}))

    def test_three_blocks_not_dead(self, corpus):
        # three blocks of one pattern can clear in one simultaneous match,
        # so flagging count==3 would be unsound; proved solvable by BFS
        lf = corpus["5x5-desk-triple"]
        assert engine.pattern_counts(lf.grid) == {1: 3}
        assert not engine.is_dead_end(lf.grid)
        assert oracles.bfs_optimal_moves(QuiescentState(lf.grid)) == 1


class TestReachPartners:
    def test_walled_in_block_has_no_partner(self, corpus):
        grid = corpus["6x3-desk-sealed"].grid  # R#R.
        partners = engine.reach_partners(grid)
        assert partners == {(2, 2): (), (2, 4): ((2, 5),), (2, 5): ((2, 4),)}
        assert oracles.stranded_blocks(grid, partners) == [(2, 2), (2, 4)]

    @settings(max_examples=100, deadline=None)
    @given(grids(max_h=10, max_w=10))
    def test_matches_set_closure_reference(self, g):
        assert engine.reach_partners(g) == oracles.reach_partners(g)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_sound_on_small_levels(self, seed, stranded):
        # a root with a stranded block is unsolvable, and no state of an
        # optimal plan's replay strands one; draw until a level with a
        # stranded block or a solvable one turns up, as wanted
        rng = random.Random(seed)
        for _ in range(64):
            state = oracles.random_quiescent(rng, max_h=5, max_w=6, n_patterns=2)
            partners = engine.reach_partners(state.grid)
            optimum = oracles.bfs_optimal_moves(state)
            found = bool(oracles.stranded_blocks(state.grid, partners))
            if found if stranded else optimum:
                break
        if found:
            assert optimum is None
        if optimum is not None:
            result = planner.solve(state, algo="bfs")
            assert result.outcome.plan.cost == optimum
            trace = result.outcome.trace
            for grid in (trace.initial, *(event.after for event in trace.events)):
                assert oracles.stranded_blocks(grid, partners) == []


class TestStateKey:
    def test_deterministic(self):
        g = empty_grid(5, 5).replace({(4, 3): 1})
        assert engine.state_key(g) == engine.state_key(g)

    def test_distinct_on_random_corpus(self):
        rng = random.Random(20240811)
        seen = {}
        for _ in range(10_000):
            g = oracles.random_grid(rng)
            key = engine.state_key(g)
            if key in seen:
                assert seen[key] == g  # same digest must mean same grid
            seen[key] = g

    def test_one_cell_difference_changes_key(self):
        g = empty_grid(5, 5).replace({(4, 3): 1})
        h = g.replace({(4, 3): 2})
        assert engine.state_key(g) != engine.state_key(h)

    def test_stable_across_processes(self):
        # frozen digest guards against run-dependent seeding creeping in
        g = empty_grid(3, 3)
        assert engine.state_key(g).hex() == "32b4f78643aa0b285e9bab3c979a16b4"


class TestBoard:
    """The trusted mask path search runs on, against the Grid path."""

    @settings(max_examples=80, deadline=None)
    @given(grids())
    def test_resolve_matches_grid_resolve(self, g):
        board = engine.Board(g)
        packed = board.encode(g)
        assert board.decode(packed) == g
        state, _, _ = engine.resolve(g)
        assert board.decode(board.resolve(packed)) == state.grid

    @settings(max_examples=60, deadline=None)
    @given(grids(max_h=10, max_w=10, n_patterns=MAX_PATTERN, p_block=0.6))
    def test_every_pattern_slot_on_large_grids(self, g):
        # up to nine patterns, so the highest slots of the packed int fill
        board = engine.Board(g)
        packed = board.encode(g)
        assert packed.bit_length() <= len(board.patterns) * g.height * g.width
        assert board.decode(packed) == g
        state, _, _ = engine.resolve(g)
        assert board.decode(board.resolve(packed)) == state.grid
        self.successors_with_resolve_calls(state)

    @staticmethod
    def successors_with_resolve_calls(state):
        """`Board.successors` of a state checked against `apply_move`, as
        (move, whether the child went through `Board.resolve`)."""
        board = engine.Board(state.grid)
        packed = board.encode(state.grid)
        assert (not packed) == engine.is_goal(state.grid)
        assert board.is_dead_end(packed) == engine.is_dead_end(state.grid)
        calls = []
        resolve = board.resolve

        def counted_resolve(child):
            calls.append(child)
            return resolve(child)

        board.resolve = counted_resolve
        successors = []
        for move, child in board.successors(packed):
            successors.append((move, child, bool(calls)))
            calls.clear()
        assert [move for move, _, _ in successors] == list(engine.legal_moves(state))
        keyed = []
        for move, child, _ in successors:
            expected, _, _ = engine.apply_move(state, move)
            assert board.decode(child) == expected.grid
            assert board.encode(expected.grid) == child
            assert (not child) == engine.is_goal(expected.grid)
            assert board.is_dead_end(child) == engine.is_dead_end(expected.grid)
            keyed.append((child, engine.state_key(expected.grid)))
        for a, key_a in keyed:
            for b, key_b in keyed:
                assert (a == b) == (key_a == key_b)
        return [(move, resolved) for move, _, resolved in successors]

    @settings(max_examples=80, deadline=None)
    @given(grids())
    def test_successors_match_apply_move(self, g):
        state, _, _ = engine.resolve(g)
        self.successors_with_resolve_calls(state)

    @settings(max_examples=80, deadline=None)
    @given(grids(n_patterns=4, p_block=0.5))
    def test_child_keeping_every_block_is_neither_goal_nor_dead_end(self, g):
        # what lets the planner test only children that lost blocks
        state, _, _ = engine.resolve(g)
        if engine.is_dead_end(state.grid):
            return
        board = engine.Board(state.grid)
        packed = board.encode(state.grid)
        for move, child in board.successors(packed):
            if child.bit_count() == packed.bit_count():
                grid = engine.apply_move(state, move)[0].grid
                assert engine.pattern_counts(grid) == engine.pattern_counts(state.grid)
                assert not engine.is_goal(grid) and not engine.is_dead_end(grid)

    # Quiescent grids with a move down each branch of `successors`, whether
    # that move's child goes through `Board.resolve`, and its match count.
    LANDINGS = {
        "drops several rows": (
            ("#######", "#.1...#", "#.2...#", "#.3...#", "#.4...#", "#######"),
            Move(2, 3, RIGHT),
            False,
            0,
        ),
        "lands on a wall": (
            ("#######", "#..1..#", "#..2#.#", "#..3..#", "#######"),
            Move(2, 4, RIGHT),
            False,
            0,
        ),
        "carries a block": (
            ("#######", "#..1..#", "#..2#.#", "#..3..#", "#######"),
            Move(4, 4, RIGHT),
            False,
            0,
        ),
        "carries a 3-block stack and drops": (
            ("#######", "#..1..#", "#..2..#", "#..3..#", "#..4..#", "#..5..#", "#######"),
            Move(5, 4, LEFT),
            False,
            0,
        ),
        "carried stack drops into a match": (
            ("#######", "#.....#", "#..1..#", "#..2..#", "#..32.#", "#######"),
            Move(5, 4, LEFT),
            True,
            1,
        ),
        "matches and cascades": (
            ("#######", "#.....#", "#..2..#", "#.21.1#", "#######"),
            Move(4, 6, LEFT),
            True,
            2,
        ),
        "beside an interior wall": (
            ("########", "#...#..#", "#..1#..#", "#..2...#", "#..3...#", "########"),
            Move(3, 4, LEFT),
            False,
            0,
        ),
    }

    @pytest.mark.parametrize("case", sorted(LANDINGS))
    def test_successors_match_apply_move_on_each_landing(self, case):
        rows, move, resolved, matches = self.LANDINGS[case]
        state = QuiescentState(make_grid(*rows))
        assert (move, resolved) in self.successors_with_resolve_calls(state)
        assert engine.apply_move(state, move)[2] == matches

    @settings(max_examples=80, deadline=None)
    @given(grids(max_h=12, max_w=12))
    def test_column_gap_matches_grid_reference(self, g):
        state, _, _ = engine.resolve(g)
        board = engine.Board(state.grid)
        masks = board.encode(state.grid)
        assert board.column_gap(masks) == oracles.grid_max_block_gap(state.grid)
        for _, child in board.successors(masks):
            assert board.column_gap(child) == oracles.grid_max_block_gap(board.decode(child))

    @settings(max_examples=80, deadline=None)
    @given(grids(max_h=12, max_w=12))
    def test_column_gap_dominates_closest_pair_bound(self, g):
        state, _, _ = engine.resolve(g)
        board = engine.Board(state.grid)
        masks = board.encode(state.grid)
        assert board.column_gap(masks) >= oracles.grid_column_gap(state.grid)
        for _, child in board.successors(masks):
            assert board.column_gap(child) >= oracles.grid_column_gap(board.decode(child))


class TestQuiescentState:
    def test_rejects_floating_block(self):
        g = empty_grid(5, 5).replace({(2, 3): 1})
        with pytest.raises(engine.EngineError, match="settled"):
            QuiescentState(g)

    def test_rejects_pending_match(self):
        g = empty_grid(5, 5).replace({(4, 2): 1, (4, 3): 1})
        with pytest.raises(engine.EngineError, match="match"):
            QuiescentState(g)
