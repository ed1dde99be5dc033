from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import corpus_paths
from puzznic import engine, levels, pddl
from test_engine import empty_grid, make_grid


class TestDomain:
    def test_three_derived_predicates(self):
        text = pddl.export_pddl_domain()
        assert text.count("(:derived") == 3
        for name in ("free", "falling_flag", "matching_flag"):
            assert f"({name}" in text

    def test_three_actions(self):
        text = pddl.export_pddl_domain()
        assert text.count("(:action") == 3
        for name in ("fall_block", "match_blocks", "move_block"):
            assert f"(:action {name}" in text

    def test_moves_are_costed(self):
        assert "(increase (total-cost) 1)" in pddl.export_pddl_domain()

    def test_fall_requires_flag_and_free_target(self):
        text = pddl.export_pddl_domain()
        assert "(falling_flag)" in text
        assert "(next ?l1 ?l2 down)" in text

    def test_byte_stable(self):
        assert pddl.export_pddl_domain() == pddl.export_pddl_domain()


class TestProblem:
    def test_all_wall_level_has_no_objects(self):
        grid = make_grid("###", "###", "###")
        text = pddl.export_pddl_problem(grid, "walls")
        assert "loc_" not in text
        assert "pat_" not in text

    def test_single_empty_cell(self):
        grid = empty_grid(3, 3)
        text = pddl.export_pddl_problem(grid, "one")
        assert "loc_2_2 - location" in text
        assert "(next" not in text

    def test_a13_thirteen_locations(self, a13):
        # count of non-wall cells in the bundled document
        doc = levels.emit_level(a13.grid, a13.symbol_table)
        expected = sum(1 for ch in doc if ch not in "#\n")
        assert expected == 13
        text = pddl.export_pddl_problem(a13.grid, "a13", a13.symbol_table)
        locs = {tok for tok in text.split() if tok.startswith("loc_")}
        assert len(locs) == expected

    def test_goal_and_metric(self, a13):
        text = pddl.export_pddl_problem(a13.grid, "a13")
        assert (
            "(:goal (forall (?l - location)"
            " (not (exists (?p - pattern) (patterned ?l ?p)))))" in text
        )
        assert "(:metric minimize (total-cost))" in text
        assert "(= (total-cost) 0)" in text

    def test_patterns_only_for_present_ids(self, corpus):
        lf = corpus["6x3-desk-gap3"]
        text = pddl.export_pddl_problem(lf.grid, "g", lf.symbol_table)
        assert "pat_r - pattern" in text
        assert text.count("pat_") >= 3  # declaration plus two patterned facts

    def test_adjacency_symmetry_on_corpus(self):
        inverse = {"right": "left", "left": "right", "up": "down", "down": "up"}
        for path in corpus_paths():
            lf = levels.load_level(path)
            facts = pddl.adjacency_facts(lf.grid)
            have = set(facts)
            for a, b, d in facts:
                assert a != b, path.stem
                assert (b, a, inverse[d]) in have, path.stem

    def test_byte_stable_on_corpus(self):
        for path in corpus_paths():
            lf = levels.load_level(path)
            first = pddl.export_pddl_problem(lf.grid, lf.name, lf.symbol_table)
            second = pddl.export_pddl_problem(lf.grid, lf.name, lf.symbol_table)
            assert first == second

    def test_non_quiescent_rejected(self):
        floating = make_grid("####", "#1.#", "#..#", "####")
        with pytest.raises(engine.EngineError):
            pddl.export_pddl_problem(floating, "bad")


def test_import_loads_no_solver_module():
    # export needs the rules and the level format, not the SAT stack
    src = str(pathlib.Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = "import sys, puzznic.pddl; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "puzznic.pddl" in loaded
    solver_side = {"encoder", "planner", "satsolver", "cnf", "backends"}
    assert loaded.isdisjoint(f"puzznic.{name}" for name in solver_side)
