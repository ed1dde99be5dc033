"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a single PASS line when it completes (run with `pytest -s`
to see them); any violation fails the test outright.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque

import oracles
from conftest import CORPUS_OPTIMA
from puzznic import encoder, engine, levels, pddl, planner
from puzznic.engine import EMPTY, WALL, Grid, QuiescentState
from sessions import solve

ALGOS = ("bfs", "astar", "iddfs")


def _passed(line: str) -> None:
    print(f"PASS {line}")


def _random_grids(n: int):
    rng = random.Random(0xA13)
    return [oracles.random_grid(rng, max_h=8, max_w=8) for _ in range(n)]


def test_criterion_1_settle_equals_single_cell_fall_oracle():
    start = time.monotonic()
    for g in _random_grids(1000):
        settled, fell = engine.settle(g)
        assert settled == oracles.single_fall_fixpoint(g)
        assert fell == (settled != g)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    _passed(
        f"criterion 1: settle == single-cell-fall fixpoint on 1000 random "
        f"grids in {elapsed:.1f}s"
    )


def test_criterion_2_resolve_equals_single_action_simulator():
    for g in _random_grids(1000):
        state, _, matches = engine.resolve(g)
        oracle_grid, oracle_matches = oracles.single_action_resolve(g)
        assert state.grid == oracle_grid
        assert matches == oracle_matches
    _passed("criterion 2: resolve == fall-then-match simulator on 1000 random grids")


def test_criterion_3_cross_algorithm_optimality(corpus):
    for name, lf in corpus.items():
        expected = CORPUS_OPTIMA[name]
        if expected is None:
            continue
        results = {}
        for algo in ALGOS:
            result = planner.solve(QuiescentState(lf.grid), algo=algo)
            assert isinstance(result.outcome, planner.Solved), (name, algo)
            assert result.stats.elapsed < 60.0, (name, algo)
            results[algo] = result
        costs = {algo: r.outcome.plan.cost for algo, r in results.items()}
        assert len(set(costs.values())) == 1, (name, costs)
        assert costs["bfs"] == expected, name
        assert (
            results["astar"].stats.expanded <= results["bfs"].stats.expanded
        ), name
    _passed(
        "criterion 3: bfs/astar/iddfs agree on every solvable instance and "
        "astar expands no more nodes than bfs"
    )


def test_criterion_4_encoder_planner_agreement(corpus):
    for name, lf in corpus.items():
        expected = CORPUS_OPTIMA[name]
        if expected is None:
            continue
        start = time.monotonic()
        sat = encoder.solve_iterative(lf.grid, mode="varmoves", bound=100)
        assert isinstance(sat.outcome, planner.Solved), name
        assert sat.outcome.plan.cost == expected, (name, sat.outcome.plan.cost)

        if expected > 0:
            for n in itertools.count(1):
                instance = encoder.encode_fixed(lf.grid, n)
                model = solve(instance)
                if model is None:
                    continue
                decoded = encoder.decode_model(instance, model)
                assert decoded.total_steps == n, name
                state = QuiescentState(lf.grid)
                matches = 0
                for mv in decoded.plan.moves:
                    state, _, m = engine.apply_move(state, mv)
                    matches += m
                assert engine.is_goal(state.grid), name
                assert decoded.plan.cost + matches == n, name
                break
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, (name, elapsed)
    _passed(
        "criterion 4: sat-varmoves optimum == planner optimum and sat-fixed "
        "plans replay at exactly the SAT horizon, every instance < 120s"
    )


def test_criterion_5_heuristic_admissible_on_all_reachable_states(corpus):
    violations = 0
    states_checked = 0
    for name, lf in corpus.items():
        states, edges = oracles.reachable_graph(QuiescentState(lf.grid))
        dist = oracles.exact_remaining_moves(states, edges)
        for key, state in states.items():
            if key not in dist:
                continue  # unsolvable states constrain nothing
            states_checked += 1
            h = planner.heuristic_column_gap(state.grid)
            if h > dist[key]:
                violations += 1
    assert violations == 0
    _passed(
        f"criterion 5: column-gap heuristic admissible on all "
        f"{states_checked} reachable solvable states (0 violations)"
    )


def test_criterion_6_dead_end_soundness_exhaustive():
    values = (EMPTY, WALL, 1, 2)
    quiescent: list[Grid] = []
    for combo in itertools.product(values, repeat=9):
        if sum(1 for v in combo if v > EMPTY) > 4:
            continue
        g = Grid(
            (
                (WALL,) * 5,
                (WALL, combo[0], combo[1], combo[2], WALL),
                (WALL, combo[3], combo[4], combo[5], WALL),
                (WALL, combo[6], combo[7], combo[8], WALL),
                (WALL,) * 5,
            )
        )
        if engine.find_unsettled(g) is None and not engine.find_matches(g):
            quiescent.append(g)
    flagged = [g for g in quiescent if engine.is_dead_end(g)]
    assert len(quiescent) > 20000 and flagged  # the sweep is genuinely exhaustive

    # a failed search proves every visited state unsolvable, which caches
    # most of the flagged sweep
    known_unsolvable: set[bytes] = set()
    violations = 0
    for g in flagged:
        key = engine.state_key(g)
        if key in known_unsolvable:
            continue
        seen = {key}
        frontier = deque([QuiescentState(g)])
        solvable = False
        while frontier:
            node = frontier.popleft()
            if engine.is_goal(node.grid):
                solvable = True
                break
            for mv in engine.legal_moves(node):
                child, _, _ = engine.apply_move(node, mv)
                ck = engine.state_key(child.grid)
                if ck not in seen:
                    seen.add(ck)
                    frontier.append(child)
        if solvable:
            violations += 1
        else:
            known_unsolvable |= seen
    assert violations == 0
    _passed(
        f"criterion 6: dead-end rule sound on all {len(quiescent)} quiescent "
        f"5x5 grids with <=4 blocks ({len(flagged)} flagged, 0 violations)"
    )


def test_criterion_7_match_events_bounded_by_half_the_blocks(corpus):
    rng = random.Random(7)
    for name, lf in corpus.items():
        blocks = sum(engine.pattern_counts(lf.grid).values())
        bound = blocks // 2

        def replay_matches(moves) -> int:
            state = QuiescentState(lf.grid)
            total = 0
            for mv in moves:
                state, _, matches = engine.apply_move(state, mv)
                total += matches
            return total

        expected = CORPUS_OPTIMA[name]
        if expected is not None:
            result = planner.solve(QuiescentState(lf.grid))
            assert replay_matches(result.outcome.plan.moves) <= bound, name
        for _ in range(50):  # arbitrary legal playouts obey the bound too
            state = QuiescentState(lf.grid)
            total = 0
            for _ in range(20):
                moves = engine.legal_moves(state)
                if not moves:
                    break
                state, _, matches = engine.apply_move(state, rng.choice(moves))
                total += matches
            assert total <= bound, name
    _passed(
        "criterion 7: match events in every replay stay within half the "
        "initial block count"
    )


def test_criterion_8_round_trips_and_stable_artifacts(corpus, tmp_path):
    from conftest import corpus_paths

    # level documents survive parse/emit byte-for-byte
    for path in corpus_paths():
        doc = path.read_text()
        lf = levels.parse_level(doc, name=path.stem)
        assert levels.emit_level(lf.grid, lf.symbol_table) == doc, path.stem

    # plan documents round-trip exactly through the planner output
    a13 = corpus["5x7-ps1-a13"]
    result = planner.solve(QuiescentState(a13.grid))
    moves = result.outcome.plan.moves
    assert tuple(levels.parse_plan(levels.emit_plan(moves))) == moves

    # CNF emission is byte-identical across independent encodes
    one = encoder.encode_fixed(a13.grid, 4).to_dimacs()
    two = encoder.encode_fixed(a13.grid, 4).to_dimacs()
    assert one == two

    # PDDL emission is byte-identical and adjacency-consistent everywhere
    inverse = {"right": "left", "left": "right", "up": "down", "down": "up"}
    for name, lf in corpus.items():
        first = pddl.export_pddl_problem(lf.grid, name, lf.symbol_table)
        second = pddl.export_pddl_problem(lf.grid, name, lf.symbol_table)
        assert first == second, name
        facts = pddl.adjacency_facts(lf.grid)
        have = set(facts)
        for a, b, d in facts:
            assert a != b and (b, a, inverse[d]) in have, name
    assert pddl.export_pddl_domain() == pddl.export_pddl_domain()
    _passed(
        "criterion 8: level/plan round-trips exact; CNF and PDDL emissions "
        "byte-stable; adjacency symmetric on all exports"
    )


def test_criterion_9_unsolvability_reported_by_both_routes(corpus):
    lf = corpus["4x3-desk-singleton"]

    planner_result = planner.solve(QuiescentState(lf.grid), max_moves=100)
    assert isinstance(planner_result.outcome, planner.ProvedUnsolvable)
    assert planner_result.outcome.within_bound == 100
    assert planner_result.stats.expanded == 0  # dead end at the root
    report = planner.prove_unsolvable_report(planner_result)
    assert "dead end" in report

    sat_result = encoder.solve_iterative(lf.grid, mode="varmoves", bound=100)
    assert isinstance(sat_result.outcome, planner.ProvedUnsolvable)
    assert sat_result.outcome.within_bound == 100
    _passed(
        "criterion 9: singleton instance proved unsolvable (U) by the "
        "planner at the root and by sat-varmoves at the 100-move horizon"
    )
