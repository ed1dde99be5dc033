from __future__ import annotations

import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from puzznic import engine, levels, planner
from puzznic.engine import QuiescentState
from test_engine import empty_grid, make_grid

ALGOS = ("bfs", "astar", "iddfs")

# The seeded hard corpus of the benchmark and its recorded optima.
HARD_CORPUS = pathlib.Path(__file__).parent.parent / "benchmarks" / "corpus"
ANSWERS = json.loads((HARD_CORPUS / "answers.json").read_text())

# Plans and counters the search must reproduce exactly, on a13 and on every
# level of the hard corpus: a change to the successor order, the frontier's
# pop order, the duplicate rule or the pruning shows up here.
# (level, algo) -> (plan, counters in the order of COUNTERS)
COUNTERS = ("expanded", "generated", "duplicates", "dead_ends", "pruned_bound", "max_frontier")
PINNED = {
    ("5x7-ps1-a13", "astar"): (
        "3 2 R, 3 2 R, 2 4 L, 3 4 L",
        (34, 137, 40, 0, 0, 64),
    ),
    ("5x7-ps1-a13", "bfs"): (
        "3 4 L, 3 2 R, 3 4 L, 3 2 R",
        (52, 227, 100, 0, 0, 76),
    ),
    ("hard0", "astar"): (
        "6 4 R, 8 2 R, 8 2 R, 6 5 R, 8 5 R, 3 4 L, 3 3 L, 8 5 R",
        (882, 6376, 3520, 71, 0, 1869),
    ),
    ("hard0", "bfs"): (
        "7 7 L, 7 7 L, 8 7 L, 8 2 R, 3 4 L, 3 3 L, 8 6 L, 8 2 R",
        (7357, 45050, 33115, 490, 0, 4095),
    ),
    ("r7-01", "astar"): (
        "7 4 R, 4 5 L, 7 3 R, 8 6 L, 7 2 R, 7 3 R, 5 5 L",
        (58, 308, 104, 0, 0, 146),
    ),
    ("r7-01", "bfs"): (
        "7 4 R, 4 5 L, 5 5 L, 7 2 R, 8 3 R, 8 3 R, 8 4 R",
        (653, 3071, 2038, 2, 0, 382),
    ),
    ("r7-02", "astar"): (
        "5 5 L, 5 4 L, 5 5 L, 5 4 L, 5 2 R, 6 2 R",
        (52, 265, 101, 0, 0, 113),
    ),
    ("r7-02", "bfs"): (
        "5 5 L, 5 4 L, 6 2 R, 5 5 L, 6 2 R, 5 4 L",
        (217, 1095, 746, 0, 0, 134),
    ),
    ("r7-03", "astar"): (
        "2 3 L, 4 2 R, 5 4 L, 5 4 L, 7 3 R",
        (113, 814, 372, 0, 0, 329),
    ),
    ("r7-03", "bfs"): (
        "2 3 L, 4 2 R, 5 4 L, 5 4 L, 7 3 R",
        (217, 1642, 992, 0, 0, 433),
    ),
    ("r7-04", "astar"): (
        "7 6 R, 7 8 L, 7 6 L, 7 7 L, 7 3 R, 7 6 L, 7 5 L, 7 2 R",
        (8, 29, 9, 0, 0, 13),
    ),
    ("r7-04", "bfs"): (
        "7 6 R, 7 8 L, 7 6 L, 7 7 L, 7 3 R, 7 6 L, 7 5 L, 7 2 R",
        (149, 574, 402, 0, 0, 42),
    ),
    ("r7-05", "astar"): (
        "3 3 L, 3 4 L, 7 3 R, 6 5 L, 4 4 R, 5 2 R, 3 3 L",
        (231, 1176, 511, 210, 0, 225),
    ),
    ("r7-05", "bfs"): (
        "3 3 L, 3 4 L, 7 3 R, 4 4 R, 6 5 L, 5 2 R, 3 3 L",
        (337, 1625, 851, 286, 0, 179),
    ),
    ("r7-06", "astar"): (
        "2 2 R, 7 4 L, 5 5 L, 7 7 R, 6 4 R, 7 4 R",
        (69, 511, 211, 15, 0, 214),
    ),
    ("r7-06", "bfs"): (
        "7 7 R, 7 6 R, 7 5 R, 7 4 R, 2 2 R, 7 5 R",
        (541, 3939, 2352, 232, 0, 815),
    ),
    ("r7-07", "astar"): (
        "7 5 L, 4 2 R, 3 6 L, 6 3 R, 7 3 R, 7 5 L, 4 2 R",
        (103, 663, 137, 271, 0, 153),
    ),
    ("r7-07", "bfs"): (
        "7 5 L, 4 2 R, 6 3 R, 7 3 R, 3 6 L, 7 5 L, 4 2 R",
        (427, 2501, 1086, 789, 0, 212),
    ),
    ("r7-08", "astar"): (
        "2 6 L, 7 2 R, 5 6 L, 6 5 L, 8 3 R, 7 2 R, 8 3 R, 7 5 L, 8 2 R, 9 2 R",
        (82, 248, 120, 38, 0, 16),
    ),
    ("r7-08", "bfs"): (
        "7 2 R, 5 6 L, 7 3 R, 8 3 R, 7 2 R, 8 3 R, 2 6 L, 7 5 L, 8 2 R, 9 2 R",
        (97, 298, 147, 49, 0, 21),
    ),
    ("r7-09", "astar"): (
        "5 7 L, 5 7 L, 6 6 L, 3 8 L, 6 3 R",
        (19, 107, 29, 0, 0, 59),
    ),
    ("r7-09", "bfs"): (
        "5 7 L, 5 7 L, 6 6 L, 3 8 L, 6 3 R",
        (148, 791, 516, 0, 0, 128),
    ),
    ("r7-10", "astar"): (
        "4 5 L, 2 7 L, 2 2 R, 6 6 R, 8 2 R",
        (291, 2755, 1525, 6, 0, 935),
    ),
    ("r7-10", "bfs"): (
        "4 5 L, 2 2 R, 6 6 R, 2 7 L, 8 2 R",
        (580, 5585, 3759, 6, 0, 1241),
    ),
    ("r7-11", "astar"): (
        "3 2 R, 8 2 R, 5 6 L, 5 5 L, 5 6 L, 4 2 R, 5 5 L",
        (199, 1118, 425, 118, 0, 375),
    ),
    ("r7-11", "bfs"): (
        "3 2 R, 8 2 R, 5 6 L, 5 5 L, 5 6 L, 4 2 R, 5 5 L",
        (610, 3604, 2107, 349, 0, 544),
    ),
    ("r7-12", "astar"): (
        "6 7 L, 6 6 L, 6 5 L, 4 3 R, 6 4 R, 6 5 R, 6 6 R, 3 2 R, 4 3 R",
        (82, 371, 202, 0, 0, 88),
    ),
    ("r7-12", "bfs"): (
        "6 7 L, 6 6 L, 6 5 L, 4 3 R, 6 4 R, 6 5 R, 3 2 R, 4 3 R, 6 6 R",
        (629, 2989, 2082, 0, 0, 282),
    ),
    ("r7-13", "astar"): (
        "4 8 L, 4 9 L, 4 7 L, 4 8 L, 4 4 R, 4 7 L, 4 6 L, 4 3 R, 2 7 R",
        (16, 88, 28, 0, 0, 45),
    ),
    ("r7-13", "bfs"): (
        "4 4 R, 4 5 R, 4 3 R, 4 4 R, 2 7 R, 4 6 R, 4 5 R, 4 9 L, 4 6 R",
        (203, 1015, 763, 0, 0, 57),
    ),
    ("r7-14", "astar"): (
        "3 4 L, 7 4 L, 5 2 R, 8 3 L, 8 5 L, 6 2 R, 4 4 R",
        (233, 1221, 503, 311, 0, 173),
    ),
    ("r7-14", "bfs"): (
        "3 4 L, 7 4 L, 7 5 L, 5 2 R, 6 2 R, 6 3 R, 4 4 L",
        (312, 1633, 769, 420, 0, 159),
    ),
    ("r7-15", "astar"): (
        "4 4 L, 2 2 R, 3 2 R, 6 2 R, 5 5 L, 5 5 L",
        (56, 280, 80, 6, 0, 138),
    ),
    ("r7-15", "bfs"): (
        "5 3 L, 3 2 R, 5 2 R, 5 5 L, 5 4 L, 3 2 R",
        (357, 2071, 1206, 51, 0, 459),
    ),
    ("r7-16", "astar"): (
        "7 3 R, 7 3 R, 7 4 R, 7 6 L, 8 6 L, 8 3 R, 8 2 R, 8 3 R, 8 7 L, 4 6 L",
        (140, 668, 249, 122, 0, 157),
    ),
    ("r7-16", "bfs"): (
        "7 3 R, 7 3 R, 7 4 R, 7 6 L, 8 3 R, 8 2 R, 8 4 R, 8 3 R, 8 7 L, 4 6 L",
        (540, 2315, 1256, 462, 0, 116),
    ),
    ("r7-17", "astar"): (
        "5 2 R, 6 4 R, 3 6 L, 5 5 L, 5 4 L, 7 5 L, 7 2 R",
        (319, 1402, 533, 293, 0, 254),
    ),
    ("r7-17", "bfs"): (
        "5 4 R, 5 2 R, 3 6 L, 5 5 L, 5 4 L, 7 5 L, 7 2 R",
        (737, 3243, 1663, 632, 0, 282),
    ),
    ("r7-18", "astar"): (
        "6 5 L, 3 3 L, 3 3 L, 5 2 R, 6 2 R, 6 3 R, 2 4 R",
        (82, 399, 183, 88, 0, 47),
    ),
    ("r7-18", "bfs"): (
        "3 3 L, 3 3 L, 6 5 L, 5 2 R, 6 2 R, 6 3 R, 2 4 R",
        (108, 489, 243, 112, 0, 37),
    ),
    ("r7-19", "astar"): (
        "4 4 L, 4 4 R, 4 6 L, 4 5 L, 4 3 L, 4 4 L, 2 5 R, 4 7 L",
        (131, 610, 295, 0, 0, 185),
    ),
    ("r7-19", "bfs"): (
        "4 4 L, 4 4 R, 4 6 L, 4 5 L, 4 3 L, 4 4 L, 2 5 R, 4 7 L",
        (800, 3232, 2264, 0, 0, 260),
    ),
    ("r7-20", "astar"): (
        "8 3 R, 6 7 L, 8 6 L, 9 4 R, 8 7 L, 3 8 L",
        (92, 674, 318, 14, 0, 250),
    ),
    ("r7-20", "bfs"): (
        "7 7 R, 9 5 R, 8 3 R, 9 4 R, 3 8 L, 9 5 R",
        (518, 3319, 2274, 65, 0, 474),
    ),
}

# The same at the optimum bound (max_moves=4), where astar cuts children
# whose g + h exceeds the bound: (level, algo, max_moves) -> plan, counters.
PINNED_AT_BOUND = {
    ("5x7-ps1-a13", "astar", 4): (
        "3 2 R\n3 2 R\n2 4 L\n3 4 L\n",
        dict(
            expanded=34, generated=137, duplicates=40, dead_ends=0,
            pruned_bound=21, max_frontier=45,
        ),
    ),
    ("5x7-ps1-a13", "bfs", 4): (
        "3 4 L\n3 2 R\n3 4 L\n3 2 R\n",
        dict(
            expanded=52, generated=227, duplicates=100, dead_ends=0,
            pruned_bound=0, max_frontier=76,
        ),
    ),
}


def solved_state() -> QuiescentState:
    return QuiescentState(empty_grid(5, 5))


class TestHeuristic:
    def test_pair_three_apart_needs_two_moves(self):
        # two blocks k columns apart need at least k-1 moves
        g = empty_grid(5, 8).replace({(4, 2): 1, (4, 5): 1})
        assert planner.heuristic_column_gap(g) == 2

    def test_goal_grid_is_zero(self):
        assert planner.heuristic_column_gap(empty_grid(5, 5)) == 0

    def test_sums_over_patterns(self):
        # gaps 2 and 3 -> (2-1) + (3-1) = 3; BFS confirms 3 is attainable
        g = make_grid(
            "########",
            "#2.....#",
            "#1.12..#",
            "########",
        )
        assert planner.heuristic_column_gap(g) == 3
        assert oracles.bfs_optimal_moves(QuiescentState(g)) == 3

    def test_singleton_is_infinite(self):
        g = empty_grid(5, 5).replace({(4, 2): 1})
        assert planner.heuristic_column_gap(g) == math.inf

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_admissible_on_random_states(self, seed):
        state = oracles.random_quiescent(random.Random(seed), max_h=6, max_w=6, n_patterns=2)
        opt = oracles.bfs_optimal_moves(state, cap=20)
        if opt is not None:
            assert planner.heuristic_column_gap(state.grid) <= opt


class TestSolve:
    def test_already_solved(self):
        for algo in ALGOS:
            result = planner.solve(solved_state(), algo=algo)
            assert isinstance(result.outcome, planner.Solved)
            assert result.outcome.plan.cost == 0

    def test_one_move_pair(self, corpus):
        state = QuiescentState(corpus["5x3-desk-corridor"].grid)
        for algo in ALGOS:
            result = planner.solve(state, algo=algo)
            assert isinstance(result.outcome, planner.Solved)
            assert result.outcome.plan.cost == 1

    def test_a13_optimal_is_four(self, a13):
        # golden value from the exhaustive BFS oracle; the level also has a
        # well-known illustrative 5-move plan, so optimal must be below that
        state = QuiescentState(a13.grid)
        result = planner.solve(state, algo="bfs")
        assert isinstance(result.outcome, planner.Solved)
        assert result.outcome.plan.cost == 4 == oracles.bfs_optimal_moves(state)
        assert result.outcome.plan.cost < 5

    def test_corpus_agreement_and_replay(self, corpus):
        from conftest import CORPUS_OPTIMA

        for name, lf in corpus.items():
            state = QuiescentState(lf.grid)
            expected = CORPUS_OPTIMA[name]
            for algo in ALGOS:
                result = planner.solve(state, algo=algo)
                if expected is None:
                    assert isinstance(result.outcome, planner.ProvedUnsolvable), name
                else:
                    assert isinstance(result.outcome, planner.Solved), name
                    assert result.outcome.plan.cost == expected, (name, algo)
                    trace = result.outcome.trace
                    assert engine.is_goal(trace.final)
                    assert trace.move_count == expected
                    assert engine.verify_trace(trace)

    def test_astar_never_expands_more_than_bfs(self, corpus):
        for name, lf in corpus.items():
            state = QuiescentState(lf.grid)
            bfs = planner.solve(state, algo="bfs")
            astar = planner.solve(state, algo="astar")
            assert astar.stats.expanded <= bfs.stats.expanded, name

    def test_unsolvable_dead_end_at_root(self, corpus):
        state = QuiescentState(corpus["4x3-desk-singleton"].grid)
        for algo in ALGOS:
            result = planner.solve(state, algo=algo)
            assert isinstance(result.outcome, planner.ProvedUnsolvable)
            assert result.outcome.within_bound == planner.DEFAULT_MAX_MOVES

    def test_unsolvable_by_exhaustion(self, corpus):
        state = QuiescentState(corpus["6x3-desk-sealed"].grid)
        result = planner.solve(state, algo="bfs")
        assert isinstance(result.outcome, planner.ProvedUnsolvable)
        assert result.stats.expanded > 0

    def test_bound_too_small_proves_within_bound(self, corpus):
        state = QuiescentState(corpus["6x3-desk-gap3"].grid)  # optimum 2
        result = planner.solve(state, max_moves=1, algo="bfs")
        assert isinstance(result.outcome, planner.ProvedUnsolvable)
        assert result.outcome.within_bound == 1

    def test_negative_bound_rejected(self):
        with pytest.raises(planner.InvalidBound):
            planner.solve(solved_state(), max_moves=-1)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            planner.solve(solved_state(), algo="dfs")

    def test_budget_exhaustion(self, a13):
        state = QuiescentState(a13.grid)
        result = planner.solve(state, algo="bfs", time_limit=0.0)
        assert isinstance(result.outcome, planner.BudgetExhausted)

    @pytest.mark.parametrize("algo", ["astar", "bfs"])
    def test_state_limit_is_deterministic(self, monkeypatch, algo):
        # the cap is read on the every-64th-pop tick, so runs stop alike
        monkeypatch.setattr(planner, "MAX_STATES", 500)
        grid = levels.load_level(HARD_CORPUS / "levels" / "hard0.txt").grid
        runs = [planner.solve(QuiescentState(grid), algo=algo) for _ in range(2)]
        for result in runs:
            assert result.outcome == planner.BudgetExhausted(planner.STATE_LIMIT)
        first, second = ([getattr(r.stats, key) for key in COUNTERS] for r in runs)
        assert first == second
        assert 0 < runs[0].stats.expanded < PINNED["hard0", algo][1][0]

    def test_zero_time_limit_stops_a_short_search(self, corpus):
        # two pops solve the corridor; the budget reads the clock on the first
        state = QuiescentState(corpus["5x3-desk-corridor"].grid)
        for algo in ALGOS:
            result = planner.solve(state, algo=algo, time_limit=0.0)
            assert isinstance(result.outcome, planner.BudgetExhausted), algo

    # A fault in `Board` must not reach the caller as a Solved plan: the
    # plan found is replayed, and one that fails replay raises.
    @pytest.mark.parametrize("algo", ALGOS)
    def test_plan_with_an_illegal_move_raises(self, a13, monkeypatch, algo):
        successors = engine.Board.successors

        def wrong_move(board, state):
            for move, child in successors(board, state):
                yield engine.Move(1, 1, move.dir), child  # a perimeter cell

        monkeypatch.setattr(engine.Board, "successors", wrong_move)
        with pytest.raises(planner.PlannerError, match="move 1 fails replay"):
            planner.solve(QuiescentState(a13.grid), algo=algo)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_plan_that_leaves_blocks_raises(self, a13, monkeypatch, algo):
        successors = engine.Board.successors

        def wrong_child(board, state):
            for move, _ in successors(board, state):
                yield move, 0  # every child read as the goal; a13 needs 4 moves

        monkeypatch.setattr(engine.Board, "successors", wrong_child)
        with pytest.raises(planner.PlannerError, match="does not clear"):
            planner.solve(QuiescentState(a13.grid), algo=algo)

    @pytest.mark.parametrize("name, algo", sorted(PINNED))
    def test_pinned_plans_and_counters(self, corpus, name, algo):
        path = HARD_CORPUS / "levels" / f"{name}.txt"
        hard = path.exists()
        grid = levels.load_level(path).grid if hard else corpus[name].grid
        result = planner.solve(QuiescentState(grid), algo=algo)
        plan, counters = PINNED[name, algo]
        assert result.outcome.plan.cost == ANSWERS["hard" if hard else "bundled"][name]["moves"]
        assert ", ".join(levels.emit_plan(result.outcome.plan.moves).splitlines()) == plan
        assert tuple(getattr(result.stats, key) for key in COUNTERS) == counters

    def test_pinned_covers_the_hard_corpus(self):
        # so the pinned searches also check every recorded hard optimum
        hard = sorted(p.stem for p in (HARD_CORPUS / "levels").glob("*.txt"))
        assert hard == sorted(ANSWERS["hard"])
        for algo in ("bfs", "astar"):
            assert [name for name in hard if (name, algo) in PINNED] == hard, algo

    @pytest.mark.parametrize("name, algo, max_moves", sorted(PINNED_AT_BOUND))
    def test_pinned_at_the_optimum_bound(self, corpus, name, algo, max_moves):
        result = planner.solve(QuiescentState(corpus[name].grid), max_moves, algo)
        plan, counters = PINNED_AT_BOUND[name, algo, max_moves]
        assert levels.emit_plan(result.outcome.plan.moves) == plan
        assert {key: getattr(result.stats, key) for key in counters} == counters

    def test_bound_pruning_counted_for_children(self, a13):
        # optimum 4: at max_moves=4 astar cuts children whose g + h exceeds 4
        result = planner.solve(QuiescentState(a13.grid), max_moves=4, algo="astar")
        assert result.outcome.plan.cost == 4
        assert result.stats.pruned_bound > 0
        assert f"pruned_bound={result.stats.pruned_bound}" in result.stats.as_text()

    def test_stats_invariant(self, corpus):
        for lf in corpus.values():
            result = planner.solve(QuiescentState(lf.grid))
            s = result.stats
            assert s.duplicates + s.dead_ends <= s.generated

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_bfs_oracle_on_random_states(self, seed):
        state = oracles.random_quiescent(random.Random(seed), max_h=6, max_w=6, n_patterns=2)
        expected = oracles.bfs_optimal_moves(state, cap=12)
        for algo in ALGOS:
            result = planner.solve(state, max_moves=12, algo=algo)
            if expected is None:
                assert not result.solved
            else:
                assert result.solved
                assert result.outcome.plan.cost == expected


class TestDifferential:
    """Every algorithm against the BFS oracle, at a loose bound, at the
    optimum and one below it, where the goal test at generation meets the
    depth bound."""

    CAP = 12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_bfs_optimum_at_every_bound(self, seed):
        # most small random levels are dead ends or solved within a move:
        # draw until one needs two moves or more or is unsolvable without
        # being a dead end (or test the last one drawn)
        rng = random.Random(seed)
        for _ in range(256):
            state = oracles.random_quiescent(rng, max_h=5, max_w=5, n_patterns=2)
            optimum = oracles.bfs_optimal_moves(state, cap=self.CAP)
            if optimum is None:
                wanted = not engine.is_dead_end(state.grid)
            else:
                wanted = optimum >= 2
            if wanted:
                break
        bounds = {self.CAP} if optimum is None else {self.CAP, optimum, max(optimum - 1, 0)}
        for max_moves in sorted(bounds):
            expected = optimum if optimum is not None and optimum <= max_moves else None
            for algo in ALGOS:
                result = planner.solve(state, max_moves=max_moves, algo=algo)
                if expected is None:
                    assert isinstance(result.outcome, planner.ProvedUnsolvable), (algo, max_moves)
                    assert result.outcome.within_bound == max_moves
                else:
                    assert isinstance(result.outcome, planner.Solved), (algo, max_moves)
                    assert result.outcome.plan.cost == expected, (algo, max_moves)


class TestUnsolvableReport:
    def test_trivial_bound_zero(self, corpus):
        state = QuiescentState(corpus["6x3-desk-gap3"].grid)
        result = planner.solve(state, max_moves=0)
        text = planner.prove_unsolvable_report(result)
        assert "0-move horizon" in text

    def test_root_dead_end_reported(self, corpus):
        state = QuiescentState(corpus["4x3-desk-singleton"].grid)
        result = planner.solve(state)
        text = planner.prove_unsolvable_report(result)
        assert "dead end" in text

    def test_heuristic_exceeds_budget_at_root(self):
        # blocks 4 apart cannot close within 2 moves; astar refutes at the
        # root and plain BFS confirms by exhaustion
        g = empty_grid(4, 8).replace({(3, 2): 1, (3, 6): 1})
        state = QuiescentState(g)
        astar = planner.solve(state, max_moves=2, algo="astar")
        assert isinstance(astar.outcome, planner.ProvedUnsolvable)
        assert astar.stats.expanded == 0
        assert astar.stats.pruned_bound == 1
        bfs = planner.solve(state, max_moves=2, algo="bfs")
        assert isinstance(bfs.outcome, planner.ProvedUnsolvable)

    def test_wrong_outcome_raises(self):
        result = planner.solve(solved_state())
        with pytest.raises(planner.WrongOutcome):
            planner.prove_unsolvable_report(result)
