from __future__ import annotations

import hashlib
import itertools
import pathlib
import random
import sys
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import CORPUS_OPTIMA, LEVELS_DIR
from puzznic import encoder, engine, levels, planner
from puzznic.backends import BackendFailure, ExternalBackend, InternalBackend
from puzznic.cnf import CnfInstance, VarMap
from puzznic.satsolver import CdclSolver, solve_clauses
from sessions import Recording, Unsat, solve
from test_engine import make_grid

STUB = pathlib.Path(__file__).parent / "data" / "stub_solver.py"

# `puzznic encode` output is an artifact users keep and diff: sha256 of
# `to_dimacs()` pins it byte for byte, clause order and numbering included.
PINNED_DIMACS = [
    ("5x7-ps1-a13", "fixed", 4, "28eb30ea869ec9f11e9d1e4d9da23e006ea591d21e158f65ccdff02e69633c29"),
    ("5x7-ps1-a13", "varmoves", 2, "5939d052b7a513cee93d2caa6898a4878a8725e6db7486058e46500e9c453170"),
    ("8x8-desk-big", "fixed", 5, "2b3ad9c313072f0686a82b3bd3fb8a2e868949ba6a2f5ee8d41a1f2159ec9fdb"),
]

# Per bundled level, one sha256 over the DIMACS text of `encode_fixed` and
# then `encode_varmoves` at n = 1, 2, 3, in that order.
PINNED_LEVEL_DIMACS = [
    ("3x3-desk-solved", "4e1564c30419f8351bddf387c0128c6d5169412980a4ae83e4bf20962011d54f"),
    ("4x3-desk-singleton", "e0b97d6764d2c369418325ff782125f81313c9805f952e7968b4834132c10ebc"),
    ("5x3-desk-corridor", "5e09e1f1394d46dc7026ff2fd28cf2edf8f886cb74b90c067373ef768e6da52d"),
    ("5x5-desk-triple", "8a257cd7d0cb5f16845e533e974c641a79e3adad23b6eb8bf97607403aaaa814"),
    ("5x7-ps1-a13", "79c3f62f22624131ab6f4abf157972afe76c1648eaf622411f226773028d38ec"),
    ("6x3-desk-gap3", "ac38440afbceaaa0937790882c7b82dc60e74f0e006a5f1e4d2a0c856eb7c0fe"),
    ("6x3-desk-sealed", "8676029dab95e0621f50660a817910a30a9e6a3147737501cc74c94ddad64ceb"),
    ("6x5-desk-pit", "292b7fdfee579f5550dffe6869e502cdcc376548632189f82ef94edd2ae2cf1a"),
    ("6x5-desk-stack", "0b92289213cd82f67e56f7ec4dfc63b9c6176507fd261b90412e1e85ec015158"),
    ("7x6-desk-cascade", "6822fbd8cbe987cf8358597a95f4950bb186dd6ab9d46ab285de2dbb17420b96"),
    ("7x6-desk-walls", "5a16de2550934d8e1e3beb01b369c790c3c65f92618f43d55a5b74d3208fac2a"),
    ("8x4-desk-twopat", "a89fbeb62ac025220868cbb41591ce7414f416fd3551cf19b6a641490efd8559"),
    ("8x8-desk-big", "20f34bb5e36a81bc94b6293fc6d6f7828b35bb08c5911215a0ccc18143df95b8"),
]

# The search of `solve_iterative` at bound 100, as recorded when the route
# still handed its backend a whole instance per horizon: the solver's
# (conflicts, decisions) and the plan's (row, col, dir) moves.  They stay
# only while clauses, hints and negated assumptions load in the same order.
PINNED_ROUTE = [
    ("8x4-desk-twopat", "fixed", 428, 1221, [(3, 2, 1), (3, 5, -1), (3, 4, -1)]),
    ("8x4-desk-twopat", "varmoves", 152, 499, [(3, 4, -1), (3, 2, 1), (3, 3, 1)]),
    ("6x5-desk-stack", "fixed", 142, 324, [(3, 3, -1), (3, 3, 1)]),
    ("6x5-desk-stack", "varmoves", 22, 86, [(2, 3, 1), (3, 3, -1)]),
    ("7x6-desk-cascade", "fixed", 37, 170, [(3, 5, -1)]),
    ("7x6-desk-cascade", "varmoves", 24, 128, [(3, 5, -1)]),
]

# `8x8-desk-big` with a lone block walled in at the bottom right: no plan,
# and every horizon's clauses are refuted while step 0 loads
WALLED_IN = ("8x8-desk-big", "#R.BR..#", "#R.BR#G#")


@pytest.fixture
def stub_external(tmp_path):
    """An external session on the stub solver, through a python-less
    wrapper script so that it runs as a single executable."""
    wrapper = tmp_path / "stubsolver"
    wrapper.write_text(f"#!/bin/sh\nexec {sys.executable} {STUB} \"$1\"\n")
    wrapper.chmod(0o755)
    return lambda: ExternalBackend(str(wrapper))


@pytest.mark.parametrize("name,mode,n,digest", PINNED_DIMACS)
def test_dimacs_is_pinned(corpus, name, mode, n, digest):
    instance = getattr(encoder, f"encode_{mode}")(corpus[name].grid, n)
    assert hashlib.sha256(instance.to_dimacs().encode()).hexdigest() == digest


@pytest.mark.parametrize("name,digest", PINNED_LEVEL_DIMACS)
def test_level_dimacs_is_pinned(corpus, name, digest):
    h = hashlib.sha256()
    for mode in ("fixed", "varmoves"):
        for n in (1, 2, 3):
            instance = getattr(encoder, f"encode_{mode}")(corpus[name].grid, n)
            h.update(instance.to_dimacs().encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("name,mode,conflicts,decisions,plan", PINNED_ROUTE)
def test_route_search_is_pinned(corpus, name, mode, conflicts, decisions, plan):
    backend = InternalBackend()
    result = encoder.solve_iterative(corpus[name].grid, mode=mode, bound=100, backend=backend)
    assert (backend._solver.conflicts, backend._solver.decisions) == (conflicts, decisions)
    assert [(m.row, m.col, m.dir) for m in result.outcome.plan.moves] == plan


def _encodings(level, mode, n):
    """The instance of `encode_<mode>(level, n)`, or with mode
    "iterative-<mode>" the cumulative formula, with the assumptions as
    units, at every call of `solve_iterative`'s route up to bound n, each
    call answered UNSAT so that every horizon is built."""
    if not mode.startswith("iterative"):
        return [getattr(encoder, f"encode_{mode}")(level, n)]
    session = Unsat()
    encoder.solve_iterative(level, mode=mode.split("-")[1], bound=n, backend=session)
    return session.instances


class TestReferenceWriter:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["fixed", "varmoves", "iterative-fixed", "iterative-varmoves"]),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_reference_fold_and_writer(self, seed, mode, n):
        level = oracles.random_quiescent(random.Random(seed), max_h=6, max_w=6).grid
        got = _encodings(level, mode, n)
        with mock.patch.object(encoder, "ClauseBuilder", oracles.ReferenceClauseBuilder):
            want = _encodings(level, mode, n)
        assert [i.clauses for i in got] == [i.clauses for i in want]
        for instance in got:
            assert instance.to_dimacs() == oracles.reference_dimacs(instance)

    @pytest.mark.parametrize(
        "clauses,body",
        [((), []), (((),), ["0"]), (((1, -2), (), (-1,)), ["1 -2 0", "0", "-1 0"])],
    )
    def test_empty_clause_prints_as_zero(self, clauses, body):
        instance = CnfInstance(2, clauses, VarMap([("matching", 1), ("matching", 2)]), {})
        text = instance.to_dimacs()
        assert text.splitlines()[3:] == body
        assert text == oracles.reference_dimacs(instance)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["fixed", "varmoves", "iterative-fixed", "iterative-varmoves"]),
    st.integers(min_value=1, max_value=3),
)
def test_no_constant_reaches_a_clause(seed, mode, n):
    # the groups store their clause tuples without a check, so every stored
    # literal must name a variable
    level = oracles.random_quiescent(random.Random(seed), max_h=6, max_w=6).grid
    for instance in _encodings(level, mode, n):
        for clause in instance.clauses:
            assert type(clause) is tuple
            for lit in clause:
                assert type(lit) is int and 1 <= abs(lit) <= instance.num_vars


class TestEncodeFixed:
    def test_solved_level_one_step_unsat(self, corpus):
        level = corpus["3x3-desk-solved"].grid
        inst = encoder.encode_fixed(level, 1)
        assert solve(inst) is None

    def test_corridor_horizons(self, corpus):
        # one move then one forced match: satisfiable only at exactly 2
        level = corpus["5x3-desk-corridor"].grid
        assert solve(encoder.encode_fixed(level, 1)) is None
        inst = encoder.encode_fixed(level, 2)
        model = solve(inst)
        assert model is not None
        decoded = encoder.decode_model(inst, model)
        assert decoded.step_kinds == (encoder.MOVE_STEP, encoder.MATCH_STEP)
        assert decoded.total_steps == 2
        assert solve(encoder.encode_fixed(level, 3)) is None  # cleared grids stall

    def test_a13_minimal_horizon_matches_decoded_steps(self, a13):
        for n in range(1, 10):
            inst = encoder.encode_fixed(a13.grid, n)
            model = solve(inst)
            if model is None:
                continue
            decoded = encoder.decode_model(inst, model)
            assert n == 7  # from the exact-step oracle
            assert decoded.total_steps == n
            moves = decoded.step_kinds.count(encoder.MOVE_STEP)
            matches = decoded.step_kinds.count(encoder.MATCH_STEP)
            assert moves + matches == n
            return
        pytest.fail("no satisfiable horizon found")

    def test_agrees_with_step_oracle_on_corpus(self, corpus):
        for name, lf in corpus.items():
            for n in range(1, 9):
                inst = encoder.encode_fixed(lf.grid, n)
                model = solve(inst)
                expect = oracles.exact_step_sequence_exists(lf.grid, n)
                assert (model is not None) == expect, (name, n)
                if model is not None:
                    decoded = encoder.decode_model(inst, model)
                    assert decoded.total_steps == n

    def test_horizon_bounds(self, corpus):
        level = corpus["5x3-desk-corridor"].grid
        with pytest.raises(encoder.HorizonTooLarge):
            encoder.encode_fixed(level, 0)
        with pytest.raises(encoder.HorizonTooLarge):
            encoder.encode_fixed(level, 65)

    def test_rejects_non_quiescent(self):
        floating = make_grid("####", "#1.#", "#..#", "####")
        with pytest.raises(encoder.LevelInvalid):
            encoder.encode_fixed(floating, 1)


class TestEncodeVarmoves:
    def test_zero_moves_unsolved_unsat(self, corpus):
        level = corpus["5x3-desk-corridor"].grid
        inst = encoder.encode_varmoves(level, 0)
        assert solve(inst) is None

    def test_max_match_steps_is_half_the_blocks(self):
        level = make_grid("#########", "#1213231#", "#########")
        assert sum(engine.pattern_counts(level).values()) == 7
        assert encoder.max_match_steps(level) == 3
        inst = encoder.encode_varmoves(level, 2)
        assert inst.meta["horizon"] == 5

    def test_monotone_in_move_budget(self, corpus):
        # once satisfiable, larger budgets stay satisfiable
        level = corpus["6x3-desk-gap3"].grid  # optimum 2
        results = []
        for m in range(0, 5):
            model = solve(encoder.encode_varmoves(level, m))
            results.append(model is not None)
        assert results == [False, False, True, True, True]

    def test_optimum_matches_planner_on_corpus(self, corpus):
        for name, lf in corpus.items():
            expected = CORPUS_OPTIMA[name]
            result = encoder.solve_iterative(lf.grid, mode="varmoves", bound=12)
            if expected is None:
                assert isinstance(result.outcome, planner.ProvedUnsolvable), name
            else:
                assert isinstance(result.outcome, planner.Solved), name
                assert result.outcome.plan.cost == expected, name


class TestDecodeModel:
    def test_all_dummy_tail(self, corpus):
        level = corpus["5x3-desk-corridor"].grid
        inst = encoder.encode_varmoves(level, 3)
        model = solve(inst, (-inst.unary_moves[1],))  # at most 1 move
        assert model is not None
        decoded = encoder.decode_model(inst, model)
        assert decoded.plan.cost == 1
        tail = decoded.step_kinds[decoded.total_steps :]
        assert all(k == encoder.DUMMY_STEP for k in tail)

    def test_corrupted_assignment_rejected(self, corpus):
        level = corpus["5x3-desk-corridor"].grid
        inst = encoder.encode_fixed(level, 2)
        model = solve(inst)
        assert model is not None
        vm = inst.varmap
        corrupt = list(model)
        var = vm.var("cell", 1, 2, 3, 1)
        corrupt[var] = not corrupt[var]
        with pytest.raises(encoder.ModelInconsistent):
            encoder.decode_model(inst, corrupt)

    # One corrupted model per rejection cause: (level, mode, n, at most
    # this many moves or None, corruption, message).  The corridor plan is
    # move, match (then dummies in varmoves); the a13 varmoves plan is move,
    # match, move, move, match, move, match; the a13 fixed plan starts with
    # a move.
    CORRUPTIONS = [
        ("5x3-desk-corridor", "fixed", 2, None, "initial", "initial state differs"),
        ("5x7-ps1-a13", "varmoves", 4, None, "two_values", "step 3 has 2 values set"),
        ("5x7-ps1-a13", "fixed", 7, None, "two_moves", "step 1 selects 2 moves"),
        ("5x3-desk-corridor", "fixed", 2, None, "no_action", "step 1 selects no action"),
        ("5x3-desk-corridor", "varmoves", 3, 1, "dummy_changes", "step 4 grid diverges|dummy step 4 changes"),
        ("5x3-desk-corridor", "varmoves", 3, 1, "dummy_pending", "dummy step 2 with a match pending"),
        ("5x7-ps1-a13", "varmoves", 4, None, "illegal_move", "illegal move at step 3"),
        ("5x7-ps1-a13", "fixed", 7, None, "diverges", "step 2 grid diverges"),
        ("5x3-desk-corridor", "varmoves", 3, 1, "not_goal", "does not reach the goal"),
    ]

    @staticmethod
    def _model_grid(inst, model, s):
        level = inst.meta["level"]
        values = [engine.EMPTY, *sorted(engine.pattern_counts(level))]
        return level.replace(
            {
                (r, c): next(v for v in values if model[inst.varmap.var("cell", s, r, c, v)])
                for r, c in level.interior()
                if level.at(r, c) != engine.WALL
            }
        )

    @staticmethod
    def _set_grid(inst, model, s, grid):
        level = inst.meta["level"]
        for v in [engine.EMPTY, *sorted(engine.pattern_counts(level))]:
            for r, c in level.interior():
                if level.at(r, c) != engine.WALL:
                    model[inst.varmap.var("cell", s, r, c, v)] = grid.at(r, c) == v

    @staticmethod
    def _movesels(inst, s):
        vm = inst.varmap
        level = inst.meta["level"]
        return [
            (r, c, d)
            for r, c in level.interior()
            for d in (engine.LEFT, engine.RIGHT)
            if vm.has("movesel", s, r, c, d)
        ]

    def _corrupt(self, inst, model, how):
        vm = inst.varmap
        level = inst.meta["level"]
        if how == "initial":
            self._set_grid(inst, model, 0, level.replace({(2, 2): engine.EMPTY, (2, 3): 1}))
        elif how == "two_values":
            grid = self._model_grid(inst, model, 3)
            r, c = next(p for p in level.interior() if grid.at(*p) == engine.EMPTY)
            model[vm.var("cell", 3, r, c, 1)] = True
        elif how == "two_moves":
            other = next(m for m in self._movesels(inst, 1) if not model[vm.var("movesel", 1, *m)])
            model[vm.var("movesel", 1, *other)] = True
        elif how == "no_action":
            for m in self._movesels(inst, 1):
                model[vm.var("movesel", 1, *m)] = False
        elif how == "dummy_changes":
            self._set_grid(inst, model, 4, level)
        elif how == "dummy_pending":
            # move, match, dummy, dummy -> move, dummy, match, dummy
            self._set_grid(inst, model, 3, self._model_grid(inst, model, 2))
            self._set_grid(inst, model, 2, self._model_grid(inst, model, 1))
            model[vm.var("matching", 2)], model[vm.var("dummy", 2)] = False, True
            model[vm.var("matching", 3)], model[vm.var("dummy", 3)] = True, False
        elif how == "illegal_move":
            before = self._model_grid(inst, model, 2)
            sels = self._movesels(inst, 3)
            for m in sels:
                model[vm.var("movesel", 3, *m)] = False
            illegal = next(
                (r, c, d)
                for r, c, d in sels
                if before.at(r, c) <= engine.EMPTY or before.at(r, c + d) != engine.EMPTY
            )
            model[vm.var("movesel", 3, *illegal)] = True
        elif how == "diverges":
            grid = self._model_grid(inst, model, 2)
            r, c = next(p for p in level.interior() if grid.at(*p) > engine.EMPTY)
            self._set_grid(inst, model, 2, grid.replace({(r, c): engine.EMPTY}))
        elif how == "not_goal":
            for s in range(1, inst.meta["horizon"] + 1):
                self._set_grid(inst, model, s, level)
                model[vm.var("matching", s)], model[vm.var("dummy", s)] = False, True
                for m in self._movesels(inst, s):
                    model[vm.var("movesel", s, *m)] = False

    @pytest.mark.parametrize(
        "name, mode, n, at_most, how, message",
        CORRUPTIONS,
        ids=[case[4] for case in CORRUPTIONS],
    )
    def test_each_inconsistency_rejected(self, corpus, name, mode, n, at_most, how, message):
        level = corpus[name].grid
        encode = encoder.encode_fixed if mode == "fixed" else encoder.encode_varmoves
        inst = encode(level, n)
        assumptions = () if at_most is None else (-inst.unary_moves[at_most],)
        model = solve(inst, assumptions)
        assert model is not None
        encoder.decode_model(inst, model)  # the model itself is consistent
        corrupt = list(model)
        self._corrupt(inst, corrupt, how)
        with pytest.raises(encoder.ModelInconsistent, match=message):
            encoder.decode_model(inst, corrupt)

    def test_replay_validates_cascade_structure(self, corpus):
        lf = corpus["7x6-desk-cascade"]
        result = encoder.solve_iterative(lf.grid, mode="fixed", bound=6)
        assert isinstance(result.outcome, planner.Solved)
        trace = result.outcome.trace
        assert engine.is_goal(trace.final)
        assert trace.match_count >= 2  # the cascade is unavoidable


class TestSolveIterative:
    def test_solved_level_short_circuits(self, corpus):
        level = corpus["3x3-desk-solved"].grid
        result = encoder.solve_iterative(level, mode="fixed", bound=4)
        assert isinstance(result.outcome, planner.Solved)
        assert result.outcome.plan.cost == 0
        assert result.stats.generated == 0  # nothing was encoded

    def test_fixed_stops_at_first_sat_horizon(self, corpus):
        level = corpus["5x3-desk-corridor"].grid
        result = encoder.solve_iterative(level, mode="fixed", bound=6)
        assert isinstance(result.outcome, planner.Solved)
        trace = result.outcome.trace
        assert trace.move_count + trace.match_count == 2

    @pytest.mark.parametrize("mode", ["fixed", "varmoves"])
    @pytest.mark.parametrize(
        "name", ["3x3-desk-solved", "5x3-desk-corridor", "5x7-ps1-a13", "7x6-desk-cascade"]
    )
    def test_plan_replayed_once(self, corpus, monkeypatch, name, mode):
        calls = []
        apply_move = engine.apply_move

        def counting(state, move):
            calls.append(move)
            return apply_move(state, move)

        monkeypatch.setattr(engine, "apply_move", counting)
        result = encoder.solve_iterative(corpus[name].grid, mode=mode, bound=8)
        assert isinstance(result.outcome, planner.Solved)
        assert calls == list(result.outcome.plan.moves)

    @pytest.mark.parametrize("mode", ["fixed", "varmoves"])
    def test_trace_is_the_engine_replay(self, corpus, mode):
        for name in ("3x3-desk-solved", "5x7-ps1-a13", "7x6-desk-cascade"):
            level = corpus[name].grid
            result = encoder.solve_iterative(level, mode=mode, bound=8)
            assert result.outcome.trace == engine.replay(level, result.outcome.plan.moves)[0]

    def test_fixed_bound_zero_rejected(self, corpus):
        with pytest.raises(encoder.BoundExhausted):
            encoder.solve_iterative(
                corpus["5x3-desk-corridor"].grid, mode="fixed", bound=0
            )

    def test_varmoves_unsolvable_within_bound(self, corpus):
        result = encoder.solve_iterative(
            corpus["4x3-desk-singleton"].grid, mode="varmoves", bound=8
        )
        assert isinstance(result.outcome, planner.ProvedUnsolvable)
        assert result.outcome.within_bound == 8

    def test_budget_exhaustion(self, a13):
        result = encoder.solve_iterative(
            a13.grid, mode="fixed", bound=8, time_limit=0.0
        )
        assert isinstance(result.outcome, planner.BudgetExhausted)

    @pytest.mark.parametrize("mode", ["fixed", "varmoves"])
    def test_zero_time_limit_without_conflicts(self, corpus, mode):
        # root propagation refutes every horizon of this level, so the
        # solver's own deadline check, made between conflicts, never runs
        result = encoder.solve_iterative(
            corpus["6x3-desk-sealed"].grid, mode=mode, bound=100, time_limit=0.0
        )
        assert isinstance(result.outcome, planner.BudgetExhausted)

    def test_fixed_past_the_last_execution(self):
        # a move, then a match that strands the third block: no execution
        # has three steps.  The block at (3, 5) has no partner but a block
        # at (2, 5), so loading refutes the formula at step 0 and the route
        # asks nothing, although fresh formulas stay unsatisfiable at every
        # horizon
        level = make_grid("######", "#.1#.#", "#1##1#", "######")
        backend = Recording()
        result = encoder.solve_iterative(level, mode="fixed", bound=6, backend=backend)
        assert isinstance(result.outcome, planner.ProvedUnsolvable)
        assert backend.verdicts == []
        for n in range(1, 7):
            assert solve(encoder.encode_fixed(level, n)) is None

    # the last level clears its four blocks with two moves and one match
    # step, fewer than its two possible ones: a bound one move too loose
    # would accept it at bound 1
    @pytest.mark.parametrize(
        "name,optimum",
        [
            ("5x7-ps1-a13", 4),
            ("8x8-desk-big", 3),
            pytest.param(("#######", "#..#2.#", "#1..12#", "#######"), 2, id="one-match-step"),
        ],
    )
    def test_varmoves_asks_each_bound_once(self, corpus, name, optimum):
        # one ministep per bound, so the first satisfiable bound is the
        # optimum and no bound is asked twice
        level = corpus[name].grid if isinstance(name, str) else make_grid(*name)
        cap = encoder.max_match_steps(level)
        backend = Recording(cap)
        result = encoder.solve_iterative(level, mode="varmoves", bound=100, backend=backend)
        assert result.outcome.plan.cost == optimum
        assert backend.bounds == list(range(1, optimum + 1))
        assert [h for h, _ in backend.verdicts] == [m + cap for m in backend.bounds]
        assert [sat for _, sat in backend.verdicts] == [False] * (optimum - 1) + [True]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_move_registers_count(self, corpus, k):
        # q[H][k] can hold iff at least k of the H moving flags are false
        horizon = 5
        enc = encoder._Encoder(corpus["5x3-desk-corridor"].grid, horizon, "varmoves")
        for s in range(1, horizon + 1):
            enc._emit_non_moves(s, k)
        moving = [enc.vm.var("moving", s) for s in range(1, horizon + 1)]
        for flags in itertools.product([False, True], repeat=horizon):
            units = [(v if on else -v,) for v, on in zip(moving, flags)]
            model = solve_clauses(enc.b.clauses + units, len(enc.vm), (enc.non_moves[-1],))
            assert (model is not None) == (flags.count(False) >= k), flags

    def test_varmoves_bound_zero_asks_nothing(self, corpus):
        backend = Recording()
        result = encoder.solve_iterative(
            corpus["5x3-desk-corridor"].grid, mode="varmoves", bound=0, backend=backend
        )
        assert isinstance(result.outcome, planner.ProvedUnsolvable)
        assert result.outcome.within_bound == 0
        assert backend.verdicts == []

    @pytest.mark.parametrize("mode", ["fixed", "varmoves"])
    @pytest.mark.parametrize("name", ["4x3-desk-singleton", "6x3-desk-sealed", "walled-in"])
    def test_stranded_block_refuted_while_loading(self, corpus, name, mode):
        # the partner clauses at step 0 conflict with the initial units, so
        # the route stops there and asks no horizon
        if name == "walled-in":
            base, row, walled = WALLED_IN
            text = (LEVELS_DIR / f"{base}.txt").read_text()
            level = levels.parse_level(text.replace(row, walled)).grid
        else:
            level = corpus[name].grid
        backend = Recording()
        result = encoder.solve_iterative(level, mode=mode, bound=100, backend=backend)
        assert result.outcome == planner.ProvedUnsolvable(100)
        assert not backend._solver.ok
        assert backend._solver.conflicts == 0
        assert backend.verdicts == []
        assert backend.adds == 1  # step 0 alone

    def test_deadline_between_bounds_encodes_no_further_step(self, corpus, monkeypatch):
        # the budget runs out while bound 1 is solved: the route stops
        # before it encodes the step of bound 2
        clock = [0.0]
        monkeypatch.setattr(encoder, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
        steps: list[int] = []
        add_step = encoder._Encoder.add_step

        def counting(enc, *args):
            steps.append(enc.S + 1)
            return add_step(enc, *args)

        monkeypatch.setattr(encoder._Encoder, "add_step", counting)

        class Slow(Recording):
            def answer(self, assumptions, deadline):
                clock[0] += 10.0
                return super().answer(assumptions, None)

        level = corpus["8x8-desk-big"].grid
        inner = Slow(encoder.max_match_steps(level))
        result = encoder.solve_iterative(
            level, mode="varmoves", bound=100, backend=inner, time_limit=5.0
        )
        assert isinstance(result.outcome, planner.BudgetExhausted)
        assert inner.bounds == [1]
        assert steps == list(range(1, encoder.max_match_steps(level) + 2))

    def test_fixed_counts_each_clause_once(self, corpus):
        level = corpus["5x3-desk-corridor"].grid
        backend = Recording()
        result = encoder.solve_iterative(level, mode="fixed", bound=6, backend=backend)
        assert [h for h, _ in backend.verdicts] == [1, 2]
        assert result.stats.generated == len(backend.clauses)


class TestIncrementalHorizons:
    BOUND = 5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_agrees_with_fresh_encodings_and_step_oracle(self, seed, solvable):
        # few random levels are solvable, so draw until one of the wanted
        # kind turns up (or give up and test the last one drawn)
        rng = random.Random(seed)
        for _ in range(64):
            level = oracles.random_quiescent(rng, max_h=6, max_w=6, n_patterns=2).grid
            optimum = next(
                (
                    n
                    for n in range(1, self.BOUND + 1)
                    if oracles.exact_step_sequence_exists(level, n)
                ),
                None,
            )
            if not engine.is_goal(level) and (optimum is not None) == solvable:
                break
        backend = Recording()
        result = encoder.solve_iterative(
            level, mode="fixed", bound=self.BOUND, backend=backend
        )
        for n, sat in backend.verdicts:
            fresh = solve(encoder.encode_fixed(level, n))
            assert sat == (fresh is not None), n
        if engine.is_goal(level):
            assert backend.verdicts == []
        elif optimum is None:
            assert isinstance(result.outcome, planner.ProvedUnsolvable)
            # every horizon, or fewer once loading refutes the clauses
            asked = len(backend.verdicts)
            assert backend.verdicts == [(n, False) for n in range(1, asked + 1)]
            assert asked == self.BOUND or not backend._solver.ok
        else:
            assert isinstance(result.outcome, planner.Solved)
            trace = result.outcome.trace
            assert trace.move_count + trace.match_count == optimum
            assert backend.verdicts == [(n, n == optimum) for n in range(1, optimum + 1)]


class TestEarlyStop:
    BOUND = 3

    def test_refutations_agree_with_bfs(self):
        # a ProvedUnsolvable from the route is never wrong, and when the
        # clauses were refuted before the last bound there is no plan at all
        stops = []

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.sampled_from(["fixed", "varmoves"]),
        )
        def check(seed, mode):
            state = oracles.random_quiescent(random.Random(seed), max_h=5, max_w=5, n_patterns=2)
            backend = Recording()
            result = encoder.solve_iterative(
                state.grid, mode=mode, bound=self.BOUND, backend=backend
            )
            if not isinstance(result.outcome, planner.ProvedUnsolvable):
                return
            if mode == "varmoves":
                assert oracles.bfs_optimal_moves(state, cap=self.BOUND) is None
            else:
                for n in range(1, self.BOUND + 1):
                    assert not oracles.exact_step_sequence_exists(state.grid, n), n
            if len(backend.verdicts) < self.BOUND:
                stops.append(seed)
                assert not backend._solver.ok
                assert oracles.bfs_optimal_moves(state) is None

        check()
        assert stops


class TestVarmovesDifferential:
    BOUND = 3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_agrees_with_bfs_optimum(self, seed, solvable):
        # few random levels are solvable, so draw until one of the wanted
        # kind turns up (or give up and test the last one drawn)
        rng = random.Random(seed)
        for _ in range(64):
            state = oracles.random_quiescent(rng, max_h=5, max_w=5, n_patterns=2)
            optimum = oracles.bfs_optimal_moves(state, cap=self.BOUND)
            if not engine.is_goal(state.grid) and (optimum is not None) == solvable:
                break
        result = encoder.solve_iterative(state.grid, mode="varmoves", bound=self.BOUND)
        if optimum is None:
            assert isinstance(result.outcome, planner.ProvedUnsolvable)
        else:
            assert isinstance(result.outcome, planner.Solved)
            assert result.outcome.plan.cost == optimum

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_each_bound_agrees_with_a_fresh_encoding(self, seed, solvable):
        rng = random.Random(seed)
        for _ in range(64):
            state = oracles.random_quiescent(rng, max_h=5, max_w=5, n_patterns=2)
            optimum = oracles.bfs_optimal_moves(state, cap=self.BOUND)
            if not engine.is_goal(state.grid) and (optimum is not None) == solvable:
                break
        backend = Recording(encoder.max_match_steps(state.grid))
        encoder.solve_iterative(state.grid, mode="varmoves", bound=self.BOUND, backend=backend)
        for m, (_, sat) in zip(backend.bounds, backend.verdicts):
            fresh = solve(encoder.encode_varmoves(state.grid, m))
            assert sat == (fresh is not None), m
        if not engine.is_goal(state.grid):
            last = self.BOUND if optimum is None else optimum
            if optimum is None and not backend._solver.ok:
                last = len(backend.bounds)  # loading refuted the clauses
            assert backend.bounds == list(range(1, last + 1))


class TestInternalBackendSession:
    @pytest.mark.parametrize("mode", ["fixed", "varmoves"])
    def test_each_clause_reaches_the_solver_once(self, corpus, monkeypatch, mode):
        # what the solver loads is what the route gave, once and in order
        loaded: list = []
        add_clauses = CdclSolver.add_clauses

        def recording(solver, clauses):
            loaded.extend(clauses)
            return add_clauses(solver, clauses)

        monkeypatch.setattr(CdclSolver, "add_clauses", recording)
        backend = Recording()
        level = corpus["8x4-desk-twopat"].grid
        result = encoder.solve_iterative(level, mode=mode, bound=100, backend=backend)
        assert isinstance(result.outcome, planner.Solved)
        assert loaded == backend.clauses
        assert len(loaded) == result.stats.generated

    def test_hints_raise_only_new_variables(self):
        session = InternalBackend()
        assert session.add([(1, 2)], 2, hints=(2,))
        activity = session._solver.activity
        assert activity == [0.0, 0.0, 1.0]
        activity[2] = 5.0  # as if bumped by a search
        assert session.add([(-1, 3)], 3, hints=(1, 2, 3))
        assert activity == [0.0, 0.0, 5.0, 1.0]

    def test_refuted_session_stays_refuted(self):
        session = InternalBackend()
        assert session.add([(1, 2)], 2)
        assert session() is not None
        assert not session.add([(-1,), (-2,)], 2)
        assert session() is None
        assert not session.add([(3,)], 3)
        assert session() is None
        assert session((3,)) is None


class TestExternalBackendContract:
    def test_stub_solver_round_trip(self, corpus, stub_external):
        level = corpus["5x3-desk-corridor"].grid
        backend = stub_external()
        result = encoder.solve_iterative(
            level, mode="varmoves", bound=4, backend=backend
        )
        assert isinstance(result.outcome, planner.Solved)
        assert result.outcome.plan.cost == 1

    def test_stub_solver_fixed_horizons(self, corpus, stub_external):
        # each horizon reaches the external solver as the cumulative formula
        # with the horizon's goal literal appended as a unit clause
        level = corpus["5x3-desk-corridor"].grid
        result = encoder.solve_iterative(
            level, mode="fixed", bound=4, backend=stub_external()
        )
        assert isinstance(result.outcome, planner.Solved)
        trace = result.outcome.trace
        assert trace.move_count + trace.match_count == 2

    def test_stub_solver_unsat(self, corpus, stub_external):
        inst = encoder.encode_varmoves(corpus["5x3-desk-corridor"].grid, 0)
        assert solve(inst, session=stub_external()) is None

    def test_missing_executable_raises(self, corpus):
        inst = encoder.encode_varmoves(corpus["5x3-desk-corridor"].grid, 1)
        backend = ExternalBackend("/nonexistent/solver-binary")
        with pytest.raises(BackendFailure):
            solve(inst, session=backend)
