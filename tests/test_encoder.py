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
    ("5x7-ps1-a13", "fixed", 4, "9f5fb11930533026657e4ea3592390a2176d5f30db941e15a8d401432a04dc6f"),
    ("5x7-ps1-a13", "varmoves", 2, "85e5cf46e3525b3ce0421887155c844a70e5aed91321de939b34454cfd24c795"),
    ("8x8-desk-big", "fixed", 5, "a7bd9c3b1f090f430cba01eda56ae3d8a9961dab87a53651ab47589a3e0ca4b3"),
]

# Per bundled level, one sha256 over the DIMACS text of `encode_fixed` and
# then `encode_varmoves` at n = 1, 2, 3, in that order.
PINNED_LEVEL_DIMACS = [
    ("3x3-desk-solved", "f35e0ab5cbbe0ea02d3540835e8e83f8df3341947720931c2ab074160fefaf64"),
    ("4x3-desk-singleton", "610cfc5f7da8d31294cfa9783176b1c9470a3de49a9f1c9e35adab5cee06b0fc"),
    ("5x3-desk-corridor", "a2bf9e24df136dcb2d518bb1e996d0efd67dac7ee7eb83787cea6e29d1d01617"),
    ("5x5-desk-triple", "0ba0eb9f805078ebd04bb317a8b8473ed921bb03e0173cdbc0a2dc1b745b6ba9"),
    ("5x7-ps1-a13", "b6cfd16fa93200bac0d4b1d0a74c2857b34a053c87eb01ab193cea51b8fb1c46"),
    ("6x3-desk-gap3", "76dccdcd8dbcd1764ef48fade856cd27ff4e21cddb5199b8aa16283f9eb1ceb1"),
    ("6x3-desk-sealed", "037db615d438b3a0d10af657728a20fe3a25a0edd19f6f3e4ee6018d8314d929"),
    ("6x5-desk-pit", "7f56a33cb54d46cda18f9645c5336a5750d30c28b07aede789321d14e78c67dc"),
    ("6x5-desk-stack", "bfd5298b148f3bbc0f02ae63140e4eec55e65dc2b764c30ff0ccf88e979ed9b5"),
    ("7x6-desk-cascade", "befe92ee5425cead8866ca62e7e9b4cec702c8025bbd6219e58289d5b8d87ce6"),
    ("7x6-desk-walls", "28593164d76113f12ab8b81c930dcb8eb3dfed1ac14c0b2e53d3b1f152bc6a9e"),
    ("8x4-desk-twopat", "472c33ab3d7209ef14d81ae3b70dd7df632f320c24f868e1f32205ec36fe2332"),
    ("8x8-desk-big", "7fe8f106bb4f3688a5e96277136744549e137b021d266ffa1eb6f66cd80e6bac"),
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

# Per bundled level and mode, one sha256 over the formulas the solving
# route hands an external solver up to bound 3 (`_encodings(level,
# "iterative-<mode>", 3)`), each clause with repeated literals dropped, the
# first kept, as `CdclSolver.add_clause` loads it: the route's formula
# itself, which `PINNED_ROUTE` pins only through one search on three levels.
PINNED_ROUTE_CNF = [
    ("3x3-desk-solved", "fixed", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("3x3-desk-solved", "varmoves", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("4x3-desk-singleton", "fixed", "22eceab6237ecf8138501159779b2018f2a5b6dec4a8b3209bb3aa60a4c4cea3"),
    ("4x3-desk-singleton", "varmoves", "6e11129cbd13c42e87b0abbb38fcf848ceca87d56d9f906bec9bbe94dab3df89"),
    ("5x3-desk-corridor", "fixed", "8d842260f0f70ca5f19fb8c7e75673f60e52d43fcaa5b13b125bd11fd228f677"),
    ("5x3-desk-corridor", "varmoves", "e3c4e259d927b4d27014727650fa461ab457938c172420b5538a823d22d18c72"),
    ("5x5-desk-triple", "fixed", "15d595eff954e76d2cd1c63696b62fc345fb4d87e91add48de2ce6d06bd038e0"),
    ("5x5-desk-triple", "varmoves", "4f980ce7990ace309c5d07b66cacde03b3feab7e3816064ef5c6530a33473946"),
    ("5x7-ps1-a13", "fixed", "df3f9833aa6880cdc1a1cddc05e6083d2215ab2ac9634d5bc3f29f75754eb933"),
    ("5x7-ps1-a13", "varmoves", "def0cb926e8fbc07906f6ab58741dfaabc2db19dc0edb1adf308fbfa75b617be"),
    ("6x3-desk-gap3", "fixed", "7e9a246c288e5aa7c225d239fd66f81aaf150f5279b0fd3494069d9e958ad2ef"),
    ("6x3-desk-gap3", "varmoves", "fe0a50fba70c58be15ee497fd7f78b25add5964c327fac7e2fc6b0810b585fb9"),
    ("6x3-desk-sealed", "fixed", "0187790069626755f4164294fcc214546a5563ef89b99080c3fb3a7829244664"),
    ("6x3-desk-sealed", "varmoves", "ae613b5b79e9f2aa8c0723e0501b626836d893078d62fa789b3c935a6afbd9b2"),
    ("6x5-desk-pit", "fixed", "e693a8ae59bd9d58e75c2005ca9b83a53f3ea4fce84fe565079e0d355c538a43"),
    ("6x5-desk-pit", "varmoves", "3e4e770b1718ba22721f613572f9394375427b67dc8512b21bcd6fb1e7854e39"),
    ("6x5-desk-stack", "fixed", "9ac7ad0e19a64d6cf37431bf534af01f17d3d35b62bfb5f600af2a8712459457"),
    ("6x5-desk-stack", "varmoves", "fc92e2027dad0db28c63276e870fc013cda0de3526d132cc8d3ae174b3f00dc6"),
    ("7x6-desk-cascade", "fixed", "cb88dfd7ab4254bd0595b8f8add8df21fb707f582f77d755d28be9fe0ae6a946"),
    ("7x6-desk-cascade", "varmoves", "ae2578406326ec1b55599b0f9b15da582535174eb8580b4984512f08dbad83f9"),
    ("7x6-desk-walls", "fixed", "8a56d1be2c05ceb231c41006b5c6687703ae6a45c3c8fdb11f2ec66826f00f23"),
    ("7x6-desk-walls", "varmoves", "95a35cf9d663d422e64671bc7b873641c3a2f197dcec6097294616df6f8f4622"),
    ("8x4-desk-twopat", "fixed", "810a8855ff0f9eae0d206cb500d07cc061ca2b9676ebe25927395aae4ce7bd77"),
    ("8x4-desk-twopat", "varmoves", "013c2956eb8677d1526805ca3a3c8891d011e8ba8091f29a4c005171a1cb60c9"),
    ("8x8-desk-big", "fixed", "aed20962265281340fb4a3c0f307cb55eb9bad84f05088b4faa093a7133c13db"),
    ("8x8-desk-big", "varmoves", "f6676125416d4cb9e3b6844fcfd6a89fe446532fdcf0768d18a4fe82a6e024eb"),
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


@pytest.mark.parametrize(
    "name,mode,n,digest",
    PINNED_DIMACS,
    ids=[f"{name}-{mode}-{n}" for name, mode, n, _ in PINNED_DIMACS],
)
def test_dimacs_is_pinned(corpus, name, mode, n, digest):
    instance = getattr(encoder, f"encode_{mode}")(corpus[name].grid, n)
    assert hashlib.sha256(instance.to_dimacs().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "name,digest", PINNED_LEVEL_DIMACS, ids=[name for name, _ in PINNED_LEVEL_DIMACS]
)
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


@pytest.mark.parametrize("name,mode,digest", PINNED_ROUTE_CNF)
def test_route_cnf_is_pinned(corpus, name, mode, digest):
    h = hashlib.sha256()
    for instance in _encodings(corpus[name].grid, f"iterative-{mode}", 3):
        clauses = tuple(tuple(dict.fromkeys(clause)) for clause in instance.clauses)
        h.update(CnfInstance(instance.num_vars, clauses, VarMap(()), {}).to_dimacs().encode())
    assert h.hexdigest() == digest


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
    # literal must name a variable, and no clause may repeat one
    level = oracles.random_quiescent(random.Random(seed), max_h=6, max_w=6).grid
    for instance in _encodings(level, mode, n):
        for clause in instance.clauses:
            assert type(clause) is tuple
            assert len(set(clause)) == len(clause)
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
        with pytest.raises(engine.EngineError):
            encoder.encode_fixed(floating, 1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda level: encoder.encode_fixed(level, 1),
        lambda level: encoder.encode_varmoves(level, 1),
        lambda level: encoder.solve_iterative(level, "fixed", 4),
        lambda level: encoder.solve_iterative(level, "varmoves", 4),
    ],
    ids=["encode_fixed", "encode_varmoves", "sat-fixed", "sat-varmoves"],
)
@pytest.mark.parametrize(
    "rows,why",
    [
        (("####", "#1.#", "#..#", "####"), "not settled"),
        (("####", "#..#", "#11#", "####"), "pending matches"),
    ],
    ids=["floating", "pending"],
)
def test_entry_points_reject_non_quiescent(entry, rows, why):
    with pytest.raises(engine.EngineError, match=why):
        entry(make_grid(*rows))


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

    @pytest.mark.parametrize("name", sorted(CORPUS_OPTIMA))
    def test_satisfiable_from_the_optimum(self, corpus, name):
        # m = 0 takes its own path (no horizon of the route ends there)
        optimum = CORPUS_OPTIMA[name]
        level = corpus[name].grid
        for m in range(3 if optimum is None else optimum + 2):
            inst = encoder.encode_varmoves(level, m)
            model = solve(inst)
            assert (model is not None) == (optimum is not None and m >= optimum), m
            if model is not None:
                assert encoder.decode_model(inst, model).plan.cost <= m

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
        # every plan of the corridor is one move and one match, so the two
        # ministeps left at 3 moves are dummies
        level = corpus["5x3-desk-corridor"].grid
        inst = encoder.encode_varmoves(level, 3)
        model = solve(inst)
        assert model is not None
        decoded = encoder.decode_model(inst, model)
        assert decoded.plan.cost == 1
        tail = decoded.step_kinds[decoded.total_steps :]
        assert tail == (encoder.DUMMY_STEP,) * 2

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

    # One corrupted model per rejection cause: (level, mode, n, corruption,
    # message).  The corridor plan is move, match (then dummies in
    # varmoves); the a13 varmoves plan is move, move, match, move, match,
    # move, match; the a13 fixed plan starts with a move.
    CORRUPTIONS = [
        ("5x3-desk-corridor", "fixed", 2, "initial", "initial state differs"),
        ("5x7-ps1-a13", "varmoves", 4, "two_values", "step 3 has 2 values set"),
        ("5x7-ps1-a13", "fixed", 7, "two_moves", "step 1 selects 2 moves"),
        ("5x3-desk-corridor", "fixed", 2, "no_action", "step 1 selects no action"),
        ("5x3-desk-corridor", "varmoves", 3, "dummy_changes", "step 4 grid diverges|dummy step 4 changes"),
        ("5x3-desk-corridor", "varmoves", 3, "dummy_pending", "dummy step 2 with a match pending"),
        ("5x7-ps1-a13", "varmoves", 4, "illegal_move", "illegal move at step 2"),
        ("5x7-ps1-a13", "fixed", 7, "diverges", "step 2 grid diverges"),
        ("5x3-desk-corridor", "varmoves", 3, "not_goal", "does not reach the goal"),
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
            before = self._model_grid(inst, model, 1)
            sels = self._movesels(inst, 2)
            for m in sels:
                model[vm.var("movesel", 2, *m)] = False
            illegal = next(
                (r, c, d)
                for r, c, d in sels
                if before.at(r, c) <= engine.EMPTY or before.at(r, c + d) != engine.EMPTY
            )
            model[vm.var("movesel", 2, *illegal)] = True
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
        "name, mode, n, how, message",
        CORRUPTIONS,
        ids=[case[3] for case in CORRUPTIONS],
    )
    def test_each_inconsistency_rejected(self, corpus, name, mode, n, how, message):
        level = corpus[name].grid
        encode = encoder.encode_fixed if mode == "fixed" else encoder.encode_varmoves
        inst = encode(level, n)
        model = solve(inst)
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

    @pytest.mark.parametrize("mode", ["fixed", "varmoves"])
    def test_bound_zero_proves_unsolvable_without_a_call(self, corpus, mode):
        for name, lf in corpus.items():
            if engine.is_goal(lf.grid):
                continue
            backend = Recording()
            result = encoder.solve_iterative(lf.grid, mode=mode, bound=0, backend=backend)
            assert result.outcome == planner.ProvedUnsolvable(0), name
            assert (backend.adds, backend.verdicts) == (0, []), name

    @pytest.mark.parametrize("mode", ["fixed", "varmoves"])
    def test_negative_bound_rejected(self, corpus, mode):
        with pytest.raises(ValueError, match="bound"):
            encoder.solve_iterative(corpus["5x3-desk-corridor"].grid, mode=mode, bound=-1)

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
        enc = encoder._Encoder(corpus["5x3-desk-corridor"].grid, "varmoves", {})
        for s in range(1, horizon + 1):
            enc._number(s)
            enc._emit_non_moves(s, k)
        moving = [enc.vm.var("moving", s) for s in range(1, horizon + 1)]
        for flags in itertools.product([False, True], repeat=horizon):
            units = [(v if on else -v,) for v, on in zip(moving, flags)]
            model = solve_clauses(enc.b.clauses + units, len(enc.vm), (enc.non_moves[-1],))
            assert (model is not None) == (flags.count(False) >= k), flags

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
