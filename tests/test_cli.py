from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest

import oracles
from conftest import LEVELS_DIR
from puzznic import cli, engine, levels, planner
from test_engine import make_grid

A13 = str(LEVELS_DIR / "5x7-ps1-a13.txt")
CORRIDOR = str(LEVELS_DIR / "5x3-desk-corridor.txt")
SINGLETON = str(LEVELS_DIR / "4x3-desk-singleton.txt")
SOLVED = str(LEVELS_DIR / "3x3-desk-solved.txt")
HARD0 = pathlib.Path(__file__).parent.parent / "benchmarks" / "corpus" / "levels" / "hard0.txt"
STUB = str(pathlib.Path(__file__).parent / "data" / "stub_solver.py")
SRC = str(pathlib.Path(__file__).parent.parent / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "puzznic.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestNoTraceback:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", A13, "--max-moves", "-1"),
            ("solve", A13, "--time-limit", "-1"),
            ("bench", "{tmp}", "--timeout", "-1"),
            ("bench", "{tmp}", "--workers", "0"),
        ],
    )
    def test_out_of_range_option_exits_one(self, tmp_path, argv):
        code, _, err = run_process(*(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("corpus", ["{tmp}/missing", A13])
    def test_bench_corpus_not_a_directory_exits_one(self, tmp_path, corpus):
        # a mistyped path must not read as an empty corpus
        code, out, err = run_process("bench", corpus.format(tmp=tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("encode", A13, "--horizon", "2", "--output", "{tmp}"),
            ("encode", A13, "--horizon", "2", "--output", "{tmp}/missing/x.cnf"),
            ("encode", A13, "--horizon", "2", "--output", "{tmp}/file/x.cnf"),
            ("export", A13, "--out-dir", "{tmp}/file/pddl"),
            ("export", A13, "--out-dir", "{tmp}/file"),
        ],
    )
    def test_unwritable_output_exits_one(self, tmp_path, argv):
        # a regular file as a parent directory cannot be created or entered
        (tmp_path / "file").write_text("not a directory\n")
        code, _, err = run_process(*(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_non_utf8_file_exits_one(self, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe#\n")
        argv = ("solve", str(bad)) if command == "solve" else ("check", A13, str(bad))
        code, _, err = run_process(*argv)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [("solve",), ("solve", A13, "--max-moves", "abc"), ("solve", A13, "--algo", "dfs")],
        ids=["missing-level", "bad-int", "unknown-algo"],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        # exit 2 is kept for "proved unsolvable" and "plan rejected"
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == cli.EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--help",), ("solve", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [("encode", A13, "--horizon", "1"), ("export", A13, "--out-dir", "{tmp}")]
    )
    def test_non_quiescent_grid_exits_one(self, capsys, monkeypatch, tmp_path, argv):
        # the parser rejects such a level first; the library check is mapped too
        floating = make_grid("####", "#1.#", "#..#", "####")
        monkeypatch.setattr(levels, "load_level", lambda path: levels.LevelFile("x", floating))
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: grid not settled")


class TestSolve:
    def test_solved_level_exits_zero_with_empty_plan(self, capsys):
        code, out, err = run(capsys, "solve", SOLVED)
        assert code == 0
        assert out == ""
        assert "expanded=" in err

    def test_plan_passes_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", A13, "--algo", "bfs")
        assert code == 0
        plan_path = tmp_path / "a13.plan"
        plan_path.write_text(out)
        code, _, err = run(capsys, "check", A13, str(plan_path))
        assert code == 0
        assert "plan ok" in err

    def test_unsolvable_exits_two(self, capsys):
        code, _, err = run(capsys, "solve", SINGLETON)
        assert code == 2
        assert "unsolvable" in err

    def test_parse_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("##.\n#.#\n###\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 1
        assert "error:" in err

    def test_budget_exit_three(self, capsys):
        code, _, err = run(capsys, "solve", A13, "--time-limit", "0.0", "--algo", "bfs")
        assert code == 3
        assert "budget exhausted before a verdict: time limit" in err

    def test_state_limit_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(planner, "MAX_STATES", 500)
        code, out, err = run(capsys, "solve", str(HARD0))
        assert code == 3 and out == ""
        assert "budget exhausted before a verdict: state limit" in err

    def test_memory_error_exits_three(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(planner, "solve", out_of_memory)
        code, out, err = run(capsys, "solve", A13)
        assert code == 3 and out == ""
        assert err == "budget exhausted before a verdict: out of memory\n"
        assert "Traceback" not in err

    def test_pre_resolve_flag(self, capsys, tmp_path):
        messy = tmp_path / "messy.txt"
        messy.write_text("####\n#RR#\n####\n")
        code, _, _ = run(capsys, "solve", str(messy))
        assert code == 1
        code, out, _ = run(capsys, "solve", str(messy), "--pre-resolve")
        assert code == 0 and out == ""


class TestEncode:
    def test_header_matches_counts(self, capsys, tmp_path):
        out_path = tmp_path / "out.cnf"
        code, _, err = run(
            capsys, "encode", CORRIDOR, "--mode", "fixed", "--horizon", "2",
            "-o", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        header = next(l for l in text.splitlines() if l.startswith("p cnf"))
        _, _, nv, nc = header.split()
        clause_lines = [
            l for l in text.splitlines() if l and not l.startswith(("c", "p"))
        ]
        assert len(clause_lines) == int(nc)
        max_var = max(
            abs(int(tok)) for l in clause_lines for tok in l.split() if tok != "0"
        )
        assert max_var <= int(nv)
        assert f"variables={nv} clauses={nc}" in err

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        run(capsys, "encode", A13, "--mode", "varmoves", "--horizon", "4", "-o", str(a))
        run(capsys, "encode", A13, "--mode", "varmoves", "--horizon", "4", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_map_comments_present(self, capsys):
        code, out, _ = run(capsys, "encode", CORRIDOR, "--mode", "fixed", "--horizon", "1")
        assert code == 0
        assert "c map 1 cell[0,2,2]=empty" in out

    def test_bad_horizon_exits_one(self, capsys):
        code, _, err = run(capsys, "encode", CORRIDOR, "--mode", "fixed", "--horizon", "0")
        assert code == 1


class TestCheck:
    def test_move_into_wall_reports_step(self, capsys, tmp_path):
        plan = tmp_path / "p.plan"
        plan.write_text("2 2 L\n")  # wall on the left of the corridor block
        code, _, err = run(capsys, "check", CORRIDOR, str(plan))
        assert code == 2
        assert "step 1" in err

    def test_empty_plan_on_unsolved_level(self, capsys, tmp_path):
        plan = tmp_path / "p.plan"
        plan.write_text("")
        code, _, err = run(capsys, "check", CORRIDOR, str(plan))
        assert code == 2
        assert "not cleared" in err


class TestShow:
    def test_playback_tags(self, capsys, tmp_path):
        plan = tmp_path / "p.plan"
        plan.write_text("2 2 R\n")
        code, out, _ = run(capsys, "show", CORRIDOR, str(plan))
        assert code == 0
        assert "M   1" in out
        assert "*" in out  # the match step appears

    def test_illegal_later_move_renders_the_legal_prefix(self, capsys, tmp_path):
        plan = tmp_path / "p.plan"
        plan.write_text("3 2 R\n2 2 L\n")  # the second move runs into the wall
        code, out, err = run(capsys, "show", A13, str(plan))
        assert code == 2
        assert "illegal move at step 2" in err
        lf = levels.load_level(A13)
        _, first, _ = engine.apply_move(engine.QuiescentState(lf.grid), engine.Move(3, 2, 1))
        assert first.events  # the legal move is shown, not only the initial grid
        assert out == levels.render_trace(first, lf.symbol_table)

    def test_zero_event_trace(self, capsys, tmp_path):
        plan = tmp_path / "p.plan"
        plan.write_text("")
        code, out, _ = run(capsys, "show", SOLVED, str(plan))
        assert code == 0
        assert out == "    0 ###\n    0 #.#\n    0 ###\n"


class TestExport:
    def test_writes_domain_and_problem(self, capsys, tmp_path):
        code, _, err = run(capsys, "export", A13, "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "domain.pddl").exists()
        assert (tmp_path / "5x7-ps1-a13.pddl").exists()


class TestBench:
    def test_empty_corpus_header_only(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", str(tmp_path))
        assert code == 0
        assert out == "instance\tmethod\toutcome\tcost\tmeasure\tseconds\n"

    def test_one_instance_two_methods(self, capsys, tmp_path):
        (tmp_path / "lvl.txt").write_text(
            pathlib.Path(CORRIDOR).read_text()
        )
        code, out, _ = run(
            capsys, "bench", str(tmp_path), "--methods", "bfs,astar", "--timeout", "10"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 3  # header + 2 rows
        assert rows[1].startswith("lvl\tastar\tY\t1\tmoves")
        assert rows[2].startswith("lvl\tbfs\tY\t1\tmoves")

    def test_cross_method_cost_agreement(self, capsys, tmp_path):
        for name in ("5x3-desk-corridor", "6x3-desk-gap3"):
            src = LEVELS_DIR / f"{name}.txt"
            (tmp_path / src.name).write_text(src.read_text())
        code, out, _ = run(
            capsys, "bench", str(tmp_path),
            "--methods", "bfs,sat-varmoves", "--timeout", "30",
        )
        assert code == 0
        costs: dict[str, set[str]] = {}
        for line in out.strip().splitlines()[1:]:
            instance, method, outcome, cost, measure, _ = line.split("\t")
            assert outcome == "Y"
            costs.setdefault(instance, set()).add(cost)
        assert all(len(v) == 1 for v in costs.values())

    def test_worker_pool_gives_the_serial_rows(self, capsys, tmp_path):
        for level in (SINGLETON, CORRIDOR, LEVELS_DIR / "6x3-desk-gap3.txt"):
            (tmp_path / pathlib.Path(level).name).write_text(pathlib.Path(level).read_text())
        rows = {}
        for workers in ("1", "2"):
            code, out, _ = run(
                capsys, "bench", str(tmp_path), "--methods", "bfs,sat-fixed,sat-varmoves",
                "--max-moves", "8", "--timeout", "30", "--workers", workers,
            )
            assert code == 0
            rows[workers] = [line.split("\t")[:5] for line in out.strip().splitlines()]
        assert len(rows["1"]) == 1 + 3 * 3
        assert rows["2"] == rows["1"]
        assert ["5x3-desk-corridor", "sat-fixed", "Y", "2", "steps"] in rows["1"]

    def test_unreadable_instance_diagnostic_row(self, capsys, tmp_path):
        (tmp_path / "broken.txt").write_text("#\n")
        code, out, err = run(capsys, "bench", str(tmp_path), "--methods", "bfs")
        assert code == 0
        assert "broken\tbfs\tE" in out
        assert "skipping broken" in err

    def test_zero_max_moves_keeps_the_table(self, tmp_path):
        # sat-fixed's step bound is 0 + 0 match steps for a single block
        for level in (SINGLETON, CORRIDOR):
            (tmp_path / pathlib.Path(level).name).write_text(pathlib.Path(level).read_text())
        code, out, err = run_process("bench", str(tmp_path), "--max-moves", "0", "--timeout", "5")
        assert code == 0
        assert "Traceback" not in err
        assert "4x3-desk-singleton\tsat-fixed\tU\t-\tsteps\t" in out
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2 * len(cli.ALL_METHODS)
        assert all(row.split("\t")[2] == "U" for row in rows)

    @pytest.mark.parametrize("method", ["astar", "bfs"])
    def test_state_limit_row(self, monkeypatch, method):
        monkeypatch.setattr(planner, "MAX_STATES", 500)
        row = cli._bench_row(HARD0, method, 60.0, planner.DEFAULT_MAX_MOVES)
        assert row[:5] == ("hard0", method, "M", "-", "moves")

    def test_unknown_method_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", str(tmp_path), "--methods", "dfs")
        assert code == 1


class TestExternalBackendEnv:
    def test_env_var_points_bench_at_stub(self, capsys, tmp_path, monkeypatch):
        # a python-less wrapper script so the env var is a single executable
        wrapper = tmp_path / "stubsolver"
        wrapper.write_text(f"#!/bin/sh\nexec {sys.executable} {STUB} \"$1\"\n")
        wrapper.chmod(0o755)
        monkeypatch.setenv(cli.ENV_BACKEND, str(wrapper))
        (tmp_path / "lvl.txt").write_text(pathlib.Path(CORRIDOR).read_text())
        code, out, _ = run(
            capsys, "bench", str(tmp_path), "--methods", "sat-varmoves",
            "--timeout", "30",
        )
        assert code == 0
        assert "lvl\tsat-varmoves\tY\t1\tmoves" in out


def _fuzz_level(rng: random.Random) -> bytes:
    """A level file: often valid, else with bad characters, a broken
    perimeter, floating blocks or pending matches, a BOM or bytes that are
    not UTF-8."""
    if rng.random() < 0.5:
        grid = oracles.random_quiescent(rng, max_h=6, max_w=6, n_patterns=2).grid
        lines = levels.emit_level(grid).splitlines()
    else:
        h, w = rng.randint(1, 6), rng.randint(2, 7)
        lines = ["".join(rng.choice("##..  RGB12") for _ in range(w)) for _ in range(h)]
        lines = ["#" * w, *("#" + line[1:-1] + "#" for line in lines), "#" * w]
    for _ in range(rng.choice((0, 0, 0, 1, 2))):  # a random cell, perimeter included
        r = rng.randrange(len(lines))
        c = rng.randrange(len(lines[r]))
        lines[r] = lines[r][:c] + rng.choice("#.RG1X\té") + lines[r][c + 1 :]
    text = rng.choice(("", "\ufeff")) + "\n".join(lines) + rng.choice(("\n", "", "\r\n"))
    data = text.encode("utf-8")
    return data + b"\xff\xfe" if rng.random() < 0.1 else data


def _fuzz_plan(rng: random.Random) -> bytes:
    lines = [
        f"{rng.randint(1, 6)} {rng.randint(1, 6)} {rng.choice('LLRRlrX')}"
        for _ in range(rng.randint(0, 5))
    ]
    lines += rng.sample(["", "# note", "0 2 L", "1 2", "a b L", "2 2 R R"], rng.choice((0, 0, 1)))
    rng.shuffle(lines)
    data = "\n".join(lines).encode("utf-8")
    return b"\x80" + data if rng.random() < 0.1 else data


def test_fuzz_every_command_exits_zero_to_three(capsys, tmp_path):
    """Random level and plan files through every command, in process and
    with small budgets: each call returns an exit code 0-3 and raises
    nothing."""
    rng = random.Random(20)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(150):
        level, plan = tmp_path / f"level{i}.txt", tmp_path / f"plan{i}.txt"
        level.write_bytes(_fuzz_level(rng))
        plan.write_bytes(_fuzz_plan(rng))
        if i % 30 == 0:
            (corpus / level.name).write_bytes(level.read_bytes())
        calls = [
            ["solve", level, "--time-limit", "0.5", "--max-moves", "4"],
            ["encode", level, "--mode", rng.choice(("fixed", "varmoves")),
             "--horizon", rng.randint(1, 3)],
            ["export", level, "--out-dir", tmp_path / "pddl"],
            ["check", level, plan],
            ["show", level, plan],
        ]
        if rng.random() < 0.3:
            calls[0].append("--pre-resolve")
        for argv in calls:
            argv = [str(a) for a in argv]
            try:
                code = cli.main(argv)
            except BaseException as exc:  # SystemExit included
                pytest.fail(f"{argv} raised {exc!r} on {level.read_bytes()!r}")
            assert code in (0, 1, 2, 3), (argv, level.read_bytes())
            capsys.readouterr()
    argv = ["bench", str(corpus), "--timeout", "1", "--max-moves", "4"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + 5 * len(cli.ALL_METHODS)
