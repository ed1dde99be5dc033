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

# The first level of the hard benchmark corpus (optimum 8 moves).
HARD0 = """\
########
#.#....#
#..G...#
#.##...#
#......#
#G.R..Y#
#O.OY.G#
#R.RG.R#
########
"""

# Plans and counters the search must reproduce exactly: a change to the
# successor order, the duplicate rule or the pruning shows up here.
PINNED = {
    ("hard0", "astar"): (
        "6 4 R\n8 2 R\n8 2 R\n6 5 R\n8 5 R\n3 4 L\n3 3 L\n8 5 R\n",
        dict(expanded=882, generated=6376, duplicates=3520, dead_ends=71, max_frontier=1869),
    ),
    ("hard0", "bfs"): (
        "7 7 L\n7 7 L\n8 7 L\n8 2 R\n3 4 L\n3 3 L\n8 6 L\n8 2 R\n",
        dict(expanded=7357, generated=45050, duplicates=33115, dead_ends=490, max_frontier=4095),
    ),
    ("5x7-ps1-a13", "astar"): (
        "3 2 R\n3 2 R\n2 4 L\n3 4 L\n",
        dict(expanded=34, generated=137, duplicates=40, dead_ends=0, max_frontier=64),
    ),
    ("5x7-ps1-a13", "bfs"): (
        "3 4 L\n3 2 R\n3 4 L\n3 2 R\n",
        dict(expanded=52, generated=227, duplicates=100, dead_ends=0, max_frontier=76),
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

    def test_zero_time_limit_stops_a_short_search(self, corpus):
        # two pops solve the corridor; the budget reads the clock on the first
        state = QuiescentState(corpus["5x3-desk-corridor"].grid)
        for algo in ALGOS:
            result = planner.solve(state, algo=algo, time_limit=0.0)
            assert isinstance(result.outcome, planner.BudgetExhausted), algo

    @pytest.mark.parametrize("name, algo", sorted(PINNED))
    def test_pinned_plans_and_counters(self, corpus, name, algo):
        grid = levels.parse_level(HARD0).grid if name == "hard0" else corpus[name].grid
        result = planner.solve(QuiescentState(grid), algo=algo)
        plan, counters = PINNED[name, algo]
        assert levels.emit_plan(result.outcome.plan.moves) == plan
        assert {key: getattr(result.stats, key) for key in counters} == counters

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

    def test_hard_corpus_optima(self):
        answers = json.loads((HARD_CORPUS / "answers.json").read_text())["hard"]
        paths = sorted((HARD_CORPUS / "levels").glob("*.txt"))
        assert sorted(p.stem for p in paths) == sorted(answers)
        for path in paths:
            state = QuiescentState(levels.load_level(path).grid)
            expected = answers[path.stem]["moves"]
            for algo in ("bfs", "astar"):
                result = planner.solve(state, algo=algo)
                cost = result.outcome.plan.cost if result.solved else None
                assert cost == expected, (path.stem, algo)


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
