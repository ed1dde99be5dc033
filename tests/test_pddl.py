from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import corpus_paths
from puzznic import engine, levels, pddl
from test_engine import empty_grid, make_grid

# Per bundled level, one sha256 over the `export_pddl_problem` text with the
# level's symbol table and then without it.
PINNED_PROBLEMS = [
    ("3x3-desk-solved", "2fedccd57a8f4d4164cda03748664ea739a0588099c61637443bbd75f1919125"),
    ("4x3-desk-singleton", "6a2b336f3c480fe4e0416cb022d87d3955287ba383b5f23f088ca06ab1a127a3"),
    ("5x3-desk-corridor", "dd6b3d20457c4d0312762b8aa444bef239def4897bc34c8bc0ce71e2d8837494"),
    ("5x5-desk-triple", "2ac24e105f4068bbfa60d118a8f1086e4c4924640dfb875191b57272f41b12f8"),
    ("5x7-ps1-a13", "771d17d9f9f325fd1e6a186108a291ab7684a4511bccd4635d013c3d57c92a61"),
    ("6x3-desk-gap3", "9332065e446b4d77c7343b2750d1245960b26075cf1bac1a5ff8b9d96324b06f"),
    ("6x3-desk-sealed", "5ce4e91b41e6a91f2121b98d4f436c41329f295cbf87cbf5901c2d69e9c702d8"),
    ("6x5-desk-pit", "5614c237bd343eb827bbaac799f6fab9021139349400023878663e74d675a372"),
    ("6x5-desk-stack", "6df67b4bd38a7b01b842cfcdee80914069e7a6e851dea9aa3938de4ea9ea1d55"),
    ("7x6-desk-cascade", "a8a457c2586ed5d872cc4cdd533e6b5ff8d23cfaf0f6bdfed770c8fb64997792"),
    ("7x6-desk-walls", "463ed74edc3623d06dc01656c6d14951a6a1cbcdd5862a65a316d584de3abd00"),
    ("8x4-desk-twopat", "bac3aac9d75e51de980360cc8370289f4336b8816e1e5b49f0b19e02b6a44c42"),
    ("8x8-desk-big", "ba220e25cb39ae9cc94d25e0a9212c3ac0f27c9766ad9df7747a469bf34d98a8"),
]


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

    @pytest.mark.parametrize("name,digest", PINNED_PROBLEMS, ids=[n for n, _ in PINNED_PROBLEMS])
    def test_problem_is_pinned(self, corpus, name, digest):
        lf = corpus[name]
        h = hashlib.sha256()
        h.update(pddl.export_pddl_problem(lf.grid, lf.name, lf.symbol_table).encode())
        h.update(pddl.export_pddl_problem(lf.grid, lf.name).encode())
        assert h.hexdigest() == digest

    def test_every_bundled_level_is_pinned(self):
        assert [p.stem for p in corpus_paths()] == [name for name, _ in PINNED_PROBLEMS]

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
