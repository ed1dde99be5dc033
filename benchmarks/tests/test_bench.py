"""Tests of the benchmark itself, on a tiny generated corpus.

    python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen_corpus  # noqa: E402
import run  # noqa: E402

TINY = dict(count=3, max_dim=6, n_patterns=3, min_moves=2, max_moves=4, min_states=10, max_states=400)
# Bundled levels that the SAT routes finish in well under a second.
QUICK_BUNDLED = ("5x3-desk-corridor", "5x5-desk-triple", "6x3-desk-gap3", "6x5-desk-pit")


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory) -> pathlib.Path:
    out = tmp_path_factory.mktemp("corpus")
    gen_corpus.generate(3, out, fixed={}, **TINY)
    return out


def test_generator_is_deterministic_per_seed(tiny_corpus, tmp_path):
    gen_corpus.generate(3, tmp_path / "again", fixed={}, **TINY)
    gen_corpus.generate(4, tmp_path / "other", fixed={}, **TINY)

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    assert files(tmp_path / "again") == files(tiny_corpus)
    levels = {k: v for k, v in files(tmp_path / "other").items() if k.startswith("levels/")}
    assert set(levels.values()).isdisjoint(files(tiny_corpus).values())


def counts(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_counts(tiny_corpus, workload):
    def traced_counts():
        ctx = run.setup(workload, tiny_corpus)
        jobs = [
            job
            for job in run.build_jobs(workload, ctx, seed=5)
            if workload != "sat-corpus" or job.label.split("/")[0] in QUICK_BUNDLED
        ]
        metrics, result, _ = run.per_layer(workload, ctx, jobs, tiny_corpus)
        assert not result.wrong
        return counts(metrics)

    first = traced_counts()
    assert any(first.values())
    assert traced_counts() == first


def bench(corpus: pathlib.Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0", "--corpus", str(corpus)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_run_prints_every_end_to_end_metric(tiny_corpus):
    proc = bench(tiny_corpus, "plan-hard")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def first_hard(doc):
    return doc["hard"][sorted(doc["hard"])[0]]


@pytest.mark.parametrize(("workload", "corrupt"), [
    # one move more than the optimum
    ("plan-hard", lambda doc: first_hard(doc).update(moves=first_hard(doc)["moves"] + 1)),
    # a recorded plan that stops one move short, or starts with an illegal move
    ("emit-check", lambda doc: doc["bundled"]["5x7-ps1-a13"].update(plan="3 2 R\n3 4 L\n3 2 R\n")),
    ("emit-check", lambda doc: doc["bundled"]["5x7-ps1-a13"].update(plan="2 2 L\n")),
])
def test_corrupted_answer_fails_the_run(tiny_corpus, tmp_path, workload, corrupt):
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus)
    doc = json.loads((corpus / "answers.json").read_text())
    corrupt(doc)
    (corpus / "answers.json").write_text(json.dumps(doc))
    proc = bench(corpus, workload)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    assert "wrong verdict" in proc.stderr


def test_sat_verdicts_are_checked_against_recorded_steps(tiny_corpus):
    ctx = run.setup("sat-corpus", tiny_corpus)
    ctx.answers["5x3-desk-corridor"] = dict(ctx.answers["5x3-desk-corridor"], steps=3)
    jobs = [job for job in run.build_jobs("sat-corpus", ctx, seed=1) if job.label.startswith("5x3-desk-corridor/")]
    result = run.run_pass(jobs)
    assert [w.split(":")[0] for w in result.wrong] == ["5x3-desk-corridor/sat-fixed"]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "plan-hard", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
