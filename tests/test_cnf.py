from __future__ import annotations

import hashlib
import itertools
import lzma
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puzznic import cnf
from puzznic.backends import InternalBackend
from puzznic.cnf import ClauseBuilder, CnfInstance, VarMap, parse_solver_output
from puzznic.satsolver import CdclSolver, SolverBudgetExceeded, _luby, solve_clauses
from sessions import solve

# Search fingerprints of one solve on a fresh solver: (level, mode, horizon
# or move bound, cumulative conflicts, cumulative decisions, sha256 of the
# model's bytes or None for UNSAT).  A change to any of them changes the
# search itself (decision order, learning, restarts, clause deletion), which
# a faster solver must not do.  Each formula is the `encode_<mode>` instance
# the fingerprint was recorded on, kept in SEARCH_DATA so that a change to
# the encoder does not move it.
PINNED_SEARCH = [
    ("5x7-ps1-a13", "fixed", 5, 931, 2946, None),
    (
        "5x7-ps1-a13", "fixed", 7, 740, 3065,
        "870d2c516ff1946f332efec14374d7c5bfe73186cc4aa5ca29ee4560a0001a4f",
    ),
    ("8x8-desk-big", "varmoves", 2, 169, 1382, None),
    (
        "8x4-desk-twopat", "varmoves", 3, 161, 728,
        "d5d41f8a95ad7fa867b2d6401d3c2e11744ee96deebc5d6c5eb6015f3a360567",
    ),
]

SEARCH_DATA = pathlib.Path(__file__).parent / "data" / "search"

lit_of = lambda n: st.integers(min_value=1, max_value=n).flatmap(  # noqa: E731
    lambda v: st.sampled_from([v, -v])
)


def solver_state(s: CdclSolver):
    return (s.ok, s.nvars, s.watches, s.trail, s.value, s.level, s.reason, s.phase)


def frozen_instance(name: str, mode: str, bound: int) -> CnfInstance:
    """A formula of SEARCH_DATA: xz-compressed DIMACS, its branch hints
    in a leading `c hints` line."""
    path = SEARCH_DATA / f"{name}-{mode}-{bound}.cnf.xz"
    hints_line, header, *body = lzma.decompress(path.read_bytes()).decode().splitlines()
    clauses = tuple(tuple(map(int, line.split()[:-1])) for line in body)
    hints = tuple(map(int, hints_line.split()[2:]))
    return CnfInstance(int(header.split()[2]), clauses, VarMap(()), {}, hints)


def brute_sat(clauses, n) -> bool:
    for bits in itertools.product([False, True], repeat=n):
        if all(
            any((bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1]) for l in cl)
            for cl in clauses
        ):
            return True
    return False


class TestCdclSolver:
    def test_trivial(self):
        assert solve_clauses([[1]], 1) == [False, True]
        assert solve_clauses([[1], [-1]], 1) is None
        assert solve_clauses([[]], 1) is None

    def test_luby_sequence(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_assumptions_reusable(self):
        s = CdclSolver()
        s.ensure_vars(3)
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        assert s.solve(assumptions=(-2,)) is not None
        assert s.solve(assumptions=(-2, -3)) is None
        model = s.solve()
        assert model is not None

    @pytest.mark.parametrize("p,h", [(3, 2), (4, 3)])
    def test_stays_unsat_after_search_refutes_the_formula(self, p, h):
        # only search refutes pigeonhole: the final conflict is at level 0,
        # after which the solver must not answer from a half-propagated trail
        var = lambda i, j: i * h + j + 1  # noqa: E731
        clauses = [[var(i, j) for j in range(h)] for i in range(p)]
        for j in range(h):
            for i1, i2 in itertools.combinations(range(p), 2):
                clauses.append([-var(i1, j), -var(i2, j)])
        s = CdclSolver()
        s.ensure_vars(p * h)
        assert s.add_clauses(clauses)
        assert s.solve() is None
        assert s.conflicts > 0
        fresh = p * h
        assert not s.add_clauses([[fresh + 1, fresh + 2], [-(fresh + 1), fresh + 3]])
        assert s.solve() is None
        assert s.solve(assumptions=(fresh + 3,)) is None

    def test_deadline(self):
        # pigeonhole instances are exponentially hard for resolution
        clauses = []
        p, h = 10, 9
        var = lambda i, j: i * h + j + 1  # noqa: E731
        for i in range(p):
            clauses.append([var(i, j) for j in range(h)])
        for j in range(h):
            for i1 in range(p):
                for i2 in range(i1 + 1, p):
                    clauses.append([-var(i1, j), -var(i2, j)])
        with pytest.raises(SolverBudgetExceeded):
            solve_clauses(clauses, p * h, deadline=time.monotonic() + 0.3)

    @pytest.mark.parametrize("name,mode,bound,conflicts,decisions,model_sha", PINNED_SEARCH)
    def test_search_is_pinned(self, name, mode, bound, conflicts, decisions, model_sha):
        instance = frozen_instance(name, mode, bound)
        backend = InternalBackend()
        model = solve(instance, session=backend)
        solver = backend._solver
        assert (solver.conflicts, solver.decisions) == (conflicts, decisions)
        digest = None if model is None else hashlib.sha256(bytes(model)).hexdigest()
        assert digest == model_sha

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_add_clauses_equals_add_clause_in_turn(self, data):
        # units, repeated and complementary literals, root-assigned literals
        # and variables beyond ensure_vars take the general path; the result
        # must not depend on which path ran
        n = data.draw(st.integers(min_value=1, max_value=4))
        declared = data.draw(st.sampled_from([n, 0]))
        chunks = data.draw(
            st.lists(
                st.lists(st.lists(lit_of(n), min_size=1, max_size=3), max_size=10),
                min_size=1,
                max_size=3,
            )
        )
        bulk, single = CdclSolver(), CdclSolver()
        bulk.ensure_vars(declared)
        single.ensure_vars(declared)
        for chunk in chunks:
            got = bulk.add_clauses(chunk)
            want = all(single.add_clause(clause) for clause in chunk) and single.ok
            assert got == want
            assert solver_state(bulk) == solver_state(single)
            assert bulk.solve() == single.solve()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_truth_table(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=n).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=3,
                ),
                min_size=1,
                max_size=25,
            )
        )
        model = solve_clauses(clauses, n)
        assert (model is not None) == brute_sat(clauses, n)
        if model is not None:
            for cl in clauses:
                assert any((model[abs(l)] if l > 0 else not model[abs(l)]) for l in cl)


class TestClauseBuilder:
    def test_at_most_one(self):
        b = ClauseBuilder()
        b.at_most_one([1, 2, 3])
        assert b.clauses == [(-1, -2), (-1, -3), (-2, -3)]


class TestToDimacs:
    @pytest.mark.parametrize("bad", [0, 3, -3])
    def test_literal_naming_no_variable_raises(self, bad):
        # 0 ends a DIMACS line, so it must never be printed as a literal
        vm = VarMap([("matching", 1), ("matching", 2)])
        instance = CnfInstance(2, ((1, -2), (bad, 1)), vm, {})
        with pytest.raises(KeyError):
            instance.to_dimacs()


class TestVarMap:
    def test_lexicographic_numbering(self):
        vm = VarMap([("movesel", 1, 2, 2, 1), ("cell", 0, 2, 2, 0), ("matching", 1)])
        assert vm.meaning(1) == ("cell", 0, 2, 2, 0)
        assert vm.meaning(2) == ("matching", 1)
        assert vm.meaning(3) == ("movesel", 1, 2, 2, 1)

    def test_aux_appended_after(self):
        vm = VarMap([("matching", 1)])
        a = vm.aux()
        assert a == 2
        assert vm.describe(a) is None

    def test_describe(self):
        vm = VarMap(
            [
                ("cell", 0, 2, 3, -1),
                ("cell", 0, 2, 3, 2),
                ("movesel", 1, 2, 2, -1),
                ("mapsto", 0, 2, 2, 0),
            ]
        )
        descs = {vm.describe(v) for v, _ in vm.iter_meanings()}
        assert "cell[0,2,3]=wall" in descs
        assert "cell[0,2,3]=p2" in descs
        assert "move[1,2,2,L]" in descs
        assert "mapsto[0,2,2]=0" in descs


class TestSolverOutputParsing:
    def test_parse_sat(self):
        status, lits = parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2\nv 3 0\n")
        assert status == "SATISFIABLE"
        assert lits == [1, -2, 3]

    def test_parse_unsat(self):
        status, lits = parse_solver_output("s UNSATISFIABLE\n")
        assert status == "UNSATISFIABLE"
        assert lits == []
