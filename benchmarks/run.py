"""Solver benchmark: seeded workloads over the puzznic solver suite.

    python3 benchmarks/run.py --workload plan-hard --seed 1 --seconds 50 --trace 0

Workloads (each a fixed batch of jobs, run serially in this one process):

- plan-hard: planner `astar` and `bfs` on the hard corpus; engine and
  planner do the work, encoder and SAT solver none.
- sat-corpus: `sat-fixed` and `sat-varmoves` with the bundled CDCL solver
  on the 13 bundled levels, with the bounds `puzznic bench` uses; the SAT
  solver does the work, the planner none.
- emit-check: for every level of both corpora, CNF encodings at the
  recorded optima with their DIMACS text, the PDDL problem, and the
  `check`/`show` path (`apply_move` traces, `verify_trace`, `render_trace`)
  over the recorded plan and seeded random playouts; no search, no SAT.

`--seed` sets the job order and the playouts.  The levels are the committed
corpus (`--corpus`, default `benchmarks/corpus`, made by `gen_corpus.py`),
so the figures of different seeds are comparable.  Every job is checked
against the recorded answers; any wrong verdict fails the run (exit 1).

With `--trace 0` the set-ups are timed and the batch is run once, its
short jobs again until `--seconds` have passed since the start, and the
end-to-end metrics are printed.  With `--trace 1` the batch is run once
with every layer's public functions wrapped by `tracer.Tracer`, and the
per-layer metrics are printed; the spans are written to `benchmarks/out/`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from tracer import Tracer, call_cost  # noqa: E402

WORKLOADS = ("plan-hard", "sat-corpus", "emit-check")
PLANNER_ALGOS = ("astar", "bfs")
SAT_MODES = ("fixed", "varmoves")
# Far above the slowest job at the seed commit (bfs on hard0, about 12 s).
JOB_BUDGET_S = 60.0
SETUP_REPEATS = 15
PLAYOUTS_PER_LEVEL = 30
PLAYOUT_MOVES = 12
DIMACS_SAMPLE_STRIDE = 97
SHORT_JOB_S = 1.0
SHORT_JOB_RUNS = 15
# Share of the first round's time given to repeats as it goes: what the
# largest workload can spare within its run time (see `run_pass`).
REPEAT_SHARE = 0.3
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
PROGRAM_MODULES = ("engine", "levels", "planner", "cnf", "satsolver", "backends", "encoder", "pddl")


class Undecided(Exception):
    """A job ended without a verdict: budget (N), memory (M) or error (E)."""


class WrongVerdict(Exception):
    pass


@dataclass
class Ctx:
    """What set-up produces: the program's modules, levels and answers."""

    mod: dict
    levels: dict  # name -> LevelFile
    answers: dict  # name -> {"moves", "steps", "plan"}
    plans: dict = field(default_factory=dict)  # name -> list[Move]


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises WrongVerdict or Undecided


# -- set-up ------------------------------------------------------------------


def level_paths(workload: str, corpus: pathlib.Path) -> tuple[list[pathlib.Path], list[pathlib.Path]]:
    bundled = sorted((SRC / "puzznic" / "levels").glob("*.txt"))
    hard = sorted((corpus / "levels").glob("*.txt"))
    if workload == "plan-hard":
        return [], hard
    if workload == "sat-corpus":
        return bundled, []
    return bundled, hard


def setup(workload: str, corpus: pathlib.Path) -> Ctx:
    """Imports, corpus loading and answer loading: what `setup_s` times."""
    mod = {name: importlib.import_module(f"puzznic.{name}") for name in PROGRAM_MODULES}
    bundled, hard = level_paths(workload, corpus)
    doc = json.loads((corpus / "answers.json").read_text(encoding="utf-8"))
    loaded, answers = {}, {}
    for group, paths in (("bundled", bundled), ("hard", hard)):
        for path in paths:
            lf = mod["levels"].load_level(path)
            if lf.name not in doc[group]:
                raise SystemExit(f"no recorded answer for {group} level {lf.name}")
            loaded[lf.name] = lf
            answers[lf.name] = doc[group][lf.name]
    if not loaded:
        raise SystemExit(f"no levels for {workload} under {corpus}")
    ctx = Ctx(mod, loaded, answers)
    for name, ans in answers.items():
        if ans["plan"] is not None:
            ctx.plans[name] = mod["levels"].parse_plan(ans["plan"])
    return ctx


# Times one set-up in a fresh interpreter.  The modules the benchmark itself
# imports (json, pathlib, ...) are loaded before the clock starts; every
# other module the program imports is imported, and timed, again.
SETUP_CHILD = """\
import pathlib, sys, time
sys.path.insert(0, sys.argv[1])
import run
start = time.process_time()
run.setup(sys.argv[2], pathlib.Path(sys.argv[3]))
print(time.process_time() - start)
"""


def setup_times(workload: str, corpus: pathlib.Path) -> list[float]:
    """CPU seconds of SETUP_REPEATS set-ups, each in its own child process,
    run one after another."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE), workload, str(corpus)]
    return [
        float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]


# -- checks (outside the timed region) ----------------------------------------


def replay(ctx: Ctx, name: str, moves) -> tuple[int, int]:
    """Replay a plan through the engine; returns (moves, match events)."""
    engine = ctx.mod["engine"]
    state = engine.QuiescentState(ctx.levels[name].grid)
    matches = 0
    for move in moves:
        try:
            state, _, m = engine.apply_move(state, move)
        except engine.IllegalMove as exc:
            raise WrongVerdict(f"{name}: plan fails replay: {exc}") from None
        matches += m
    if not engine.is_goal(state.grid):
        raise WrongVerdict(f"{name}: plan does not clear the level")
    return len(moves), matches


def check_search(ctx: Ctx, name: str, measure: str, result) -> None:
    planner = ctx.mod["planner"]
    expected = ctx.answers[name][measure]
    outcome = result.outcome
    if isinstance(outcome, planner.BudgetExhausted):
        raise Undecided(f"N: {outcome.reason}")
    if isinstance(outcome, planner.ProvedUnsolvable):
        if expected is not None:
            raise WrongVerdict(f"{name}: U on a level solvable in {expected} {measure}")
        return
    if expected is None:
        raise WrongVerdict(f"{name}: solved a level recorded as unsolvable")
    moves, matches = replay(ctx, name, outcome.plan.moves)
    cost = moves + matches if measure == "steps" else moves
    if cost != expected:
        raise WrongVerdict(f"{name}: cost {cost} {measure}, recorded optimum {expected}")


def check_dimacs(name: str, instance, text: str) -> None:
    """The header must match the body: clause count = clause lines, every
    line a 0-terminated clause, every variable within the header's count.
    Variables are read from the instance, which a sample of lines must
    match, to keep the check cheap beside the encoding it checks."""
    head, _, body = text.partition("p cnf ")
    header, _, body = body.partition("\n")
    nvars, nclauses = (int(x) for x in header.split())
    lines = body.splitlines()
    top = max((abs(lit) for clause in instance.clauses for lit in clause), default=0)
    if (
        (nvars, nclauses) != (instance.num_vars, len(instance.clauses))
        or len(lines) != nclauses
        or top > nvars
        or not all(line.endswith(" 0") or line == "0" for line in lines)
        or not all(line.startswith("c ") for line in head.splitlines())
        or any(
            tuple(map(int, lines[i].split()[:-1])) != instance.clauses[i]
            for i in range(0, nclauses, DIMACS_SAMPLE_STRIDE)
        )
    ):
        raise WrongVerdict(f"{name}: DIMACS header p cnf {header} disagrees with its body")


def check_render(name: str, trace, text: str) -> None:
    """One rendered block for the initial grid and one per event."""
    blocks = text.count("\n\n") + 1
    if blocks != len(trace.events) + 1:
        raise WrongVerdict(f"{name}: rendered {blocks} blocks for {len(trace.events)} events")


# -- workloads ------------------------------------------------------------------


def planner_job(ctx: Ctx, name: str, algo: str) -> Job:
    engine, planner = ctx.mod["engine"], ctx.mod["planner"]
    grid = ctx.levels[name].grid

    def run():
        return planner.solve(engine.QuiescentState(grid), algo=algo, time_limit=JOB_BUDGET_S)

    return Job(f"{name}/{algo}", run, lambda result: check_search(ctx, name, "moves", result))


def sat_job(ctx: Ctx, name: str, mode: str) -> Job:
    encoder, backends, planner = ctx.mod["encoder"], ctx.mod["backends"], ctx.mod["planner"]
    grid = ctx.levels[name].grid

    def run():
        bound = planner.DEFAULT_MAX_MOVES  # the bounds `puzznic bench` uses
        if mode == "fixed":
            bound += encoder.max_match_steps(grid)
        return encoder.solve_iterative(
            grid, mode=mode, bound=bound, backend=backends.InternalBackend(), time_limit=JOB_BUDGET_S
        )

    measure = "steps" if mode == "fixed" else "moves"
    return Job(f"{name}/sat-{mode}", run, lambda result: check_search(ctx, name, measure, result))


def play(ctx: Ctx, grid, moves) -> tuple:
    """The `check`/`show` path: apply each move with its full trace (up to
    the first illegal one, whose step is returned), then verify and render
    the whole playback."""
    engine, levels = ctx.mod["engine"], ctx.mod["levels"]
    state = engine.QuiescentState(grid)
    events, bad_step = [], None
    for step, move in enumerate(moves, start=1):
        try:
            state, trace, _ = engine.apply_move(state, move)
        except engine.IllegalMove:
            bad_step = step
            break
        events.extend(trace.events)
    full = engine.Trace(initial=grid, events=tuple(events))
    return state, bad_step, full, engine.verify_trace(full), levels.render_trace(full)


def playouts(ctx: Ctx, grid, rng: random.Random) -> list[list]:
    """Move lists of seeded random legal playouts, made when the jobs are
    built.  Each move is drawn from the legal moves in (row, col, dir)
    order, so the playouts do not depend on the order in which the engine
    lists its moves."""
    engine = ctx.mod["engine"]
    outs = []
    for _ in range(PLAYOUTS_PER_LEVEL):
        state = engine.QuiescentState(grid)
        moves = []
        for _ in range(PLAYOUT_MOVES):
            legal = sorted(engine.legal_moves(state), key=lambda m: (m.row, m.col, m.dir))
            if not legal:
                break
            moves.append(rng.choice(legal))
            state, _, _ = engine.apply_move(state, moves[-1])
        outs.append(moves)
    return outs


def encode_job(ctx: Ctx, name: str, mode: str, horizon: int) -> Job:
    """`puzznic encode`: the CNF at a recorded optimum and its DIMACS text."""
    encoder = ctx.mod["encoder"]
    grid = ctx.levels[name].grid

    def run():
        instance = getattr(encoder, f"encode_{mode}")(grid, horizon)
        return instance, instance.to_dimacs()

    return Job(f"{name}/encode-{mode}", run, lambda out: check_dimacs(name, *out))


def tools_job(ctx: Ctx, name: str, seed: int) -> Job:
    """`puzznic export`, then `check`/`show` on the recorded plan and on
    seeded random playouts."""
    pddl, engine = ctx.mod["pddl"], ctx.mod["engine"]
    lf, moves = ctx.levels[name], ctx.answers[name]["moves"]
    plays = playouts(ctx, lf.grid, random.Random(f"{seed}/{name}"))

    def run():
        problem = pddl.export_pddl_problem(lf.grid, lf.name, lf.symbol_table)
        replay = play(ctx, lf.grid, ctx.plans[name]) if name in ctx.plans else None
        return problem, replay, [play(ctx, lf.grid, moves) for moves in plays]

    def check(out) -> None:
        problem, replay, plays = out
        blocks = sum(engine.pattern_counts(lf.grid).values())
        if not problem.startswith(f"(define (problem {name})") or problem.count("(patterned loc_") != blocks:
            raise WrongVerdict(f"{name}: PDDL problem does not describe the level")
        if replay is not None:
            state, _, full, _, _ = replay
            if not engine.is_goal(state.grid) or full.move_count != moves:
                raise WrongVerdict(f"{name}: recorded optimal plan does not clear the level")
            plays = plays + [replay]
        for _, bad_step, full, verified, text in plays:
            if bad_step or not verified:
                raise WrongVerdict(f"{name}: plan fails replay (illegal step {bad_step}, verified {verified})")
            check_render(name, full, text)

    return Job(f"{name}/tools", run, check)


def build_jobs(workload: str, ctx: Ctx, seed: int) -> list[Job]:
    jobs: list[Job] = []
    for name in sorted(ctx.levels):
        if workload == "plan-hard":
            jobs += [planner_job(ctx, name, algo) for algo in PLANNER_ALGOS]
        elif workload == "sat-corpus":
            jobs += [sat_job(ctx, name, mode) for mode in SAT_MODES]
        else:
            ans = ctx.answers[name]
            # Unsolvable levels have no optimum to encode at, and a cleared
            # level has no positive step horizon.
            if ans["steps"]:
                jobs.append(encode_job(ctx, name, "fixed", ans["steps"]))
                jobs.append(encode_job(ctx, name, "varmoves", ans["moves"]))
            jobs.append(tools_job(ctx, name, seed))
    random.Random(seed).shuffle(jobs)
    return jobs


# -- running ----------------------------------------------------------------------


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)  # per job, CPU seconds to verdict
    walls: list[float] = field(default_factory=list)  # per job, wall seconds of all its runs
    stats: list = field(default_factory=list)  # SearchStats of jobs that returned a SearchResult
    decided: int = 0
    wrong: list[str] = field(default_factory=list)


def time_job(job: Job, tracer: Tracer | None) -> tuple[object, str | None, float, float]:
    """One run of a job from a collected heap, so that its time does not
    depend on the garbage its predecessors left: (output, failure code or
    None, CPU seconds, wall seconds)."""
    gc.collect()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = job.run()
        else:
            with tracer.root(f"job:{job.label}"):
                out = job.run()
    except MemoryError:
        out, code = None, "M"
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out, code = None, "E"
    else:
        code = None
    return out, code, time.process_time() - cpu_start, time.perf_counter() - start


def run_pass(jobs: list[Job], tracer: Tracer | None = None, deadline: float = 0.0) -> PassResult:
    """Run each job once, timed, and check its output untimed; run the
    short jobs again until `deadline` (a `time.perf_counter` reading).

    Jobs are timed with the process CPU clock: the program is serial and
    does no I/O in a job, so its CPU time is its time to verdict, without
    the time the sandbox's hypervisor takes the CPU away (steal), which
    reaches 10-15% of wall time there and varies from minute to minute.

    A decided job whose runs so far add up to less than SHORT_JOB_S is
    run again, in turn with the other such jobs, up to SHORT_JOB_RUNS runs,
    while the next run is predicted to end before `deadline`; a job's time
    is the median of its runs.  The machine's speed swings by up to a third
    from one few-second stretch to the next, so a short job's runs must be
    spread over the whole pass, not made back to back or all at its end:
    after each first run, repeats take up to REPEAT_SHARE of that run's
    time, and the rest of the repeats follow the first round.  The default
    deadline allows no repeat, so a traced pass runs every job once and its
    span counts repeat exactly.
    """
    res = PassResult()
    runs: list[list[float]] = []
    queue: deque[int] = deque()  # jobs to run again, in turn

    def repeat(until: float) -> None:
        while queue:
            i = queue[0]
            if sum(runs[i]) >= SHORT_JOB_S or len(runs[i]) == SHORT_JOB_RUNS:
                queue.popleft()
                continue
            if time.perf_counter() + runs[i][-1] > until:
                return
            queue.rotate(-1)
            cpu, wall = time_job(jobs[i], None)[2:]  # keeps no output alive
            runs[i].append(cpu)
            res.walls[i] += wall

    for i, job in enumerate(jobs):
        out, code, cpu, wall = time_job(job, tracer)
        runs.append([cpu])
        res.walls.append(wall)
        if hasattr(out, "stats"):
            res.stats.append(out.stats)
        try:
            if code is not None:
                raise Undecided(f"{code}: raised")
            job.check(out)
        except WrongVerdict as exc:
            res.wrong.append(f"{job.label}: {exc}")
        except Undecided as exc:
            print(f"undecided {job.label}: {exc}", file=sys.stderr)
        else:
            res.decided += 1
            queue.append(i)
        out = None  # drop this run's output before the next run
        repeat(min(deadline, time.perf_counter() + REPEAT_SHARE * wall))
    repeat(deadline)
    res.times = [statistics.median(r) for r in runs]
    return res


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0
    return ordered[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def end_to_end(jobs, deadline, setups) -> tuple[dict, dict, PassResult]:
    """One pass of the batch, repeating short jobs until `deadline`; the
    end-to-end metrics and their notes."""
    res = run_pass(jobs, deadline=deadline)
    tail_s, tail_pct = tail(res.times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(res.times), "s"),
        "verdict_s.p50": (statistics.median(res.times), "s"),
        "verdict_s.tail": (tail_s, "s"),
        "decided_share": (res.decided / len(jobs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "verdict_s.tail": f"p{tail_pct} of {len(jobs)} per-job medians, {TAIL_BEYOND} beyond",
        "verdict_s.p50": f"of {len(jobs)} per-job medians",
        "wall_s": f"sum of per-job medians; all runs took {sum(res.walls):.2f} s on the wall clock",
        "setup_s": f"median of {len(setups)} set-ups, each in a fresh process",
    }
    return metrics, notes, res


# Every public engine function: the listed per-function metrics, plus
# `is_goal` and `pattern_counts`, which search calls per state and would
# otherwise be counted as the caller's self time.
ENGINE_FNS = (
    "apply_move", "resolve", "settle", "find_matches", "remove_matches", "legal_moves",
    "state_key", "is_dead_end", "find_unsettled", "verify_trace", "is_goal", "pattern_counts",
)


def instrument(tracer: Tracer, mod: dict) -> None:
    """Wrap each layer's public functions; methods at their class attribute."""
    def count_instance(counts, instance):
        counts["encoder.vars"] += instance.num_vars
        counts["encoder.clauses"] += len(instance.clauses)

    def count_dimacs(counts, text):
        counts["cnf.dimacs_bytes"] += len(text)  # DIMACS text is ASCII

    def count_verdict(counts, model):
        counts["satsolver.sat_calls" if model is not None else "satsolver.unsat_calls"] += 1

    for fn in ENGINE_FNS:
        tracer.wrap(mod["engine"], fn, f"engine.{fn}")
    tracer.wrap(mod["planner"], "solve", "planner.solve")
    tracer.wrap(mod["planner"], "heuristic_column_gap", "planner.heuristic")
    tracer.wrap(mod["encoder"], "encode_fixed", "encoder.encode", count_instance)
    tracer.wrap(mod["encoder"], "encode_varmoves", "encoder.encode", count_instance)
    tracer.wrap(mod["encoder"], "decode_model", "encoder.decode")
    tracer.wrap(mod["encoder"], "solve_iterative", "encoder.solve_iterative")
    tracer.wrap(mod["encoder"], "max_match_steps", "encoder.max_match_steps")
    tracer.wrap(mod["cnf"].CnfInstance, "to_dimacs", "cnf.to_dimacs", count_dimacs)
    # The bundled backend is the solver's loading loop; it counts as satsolver.
    tracer.wrap(mod["backends"].InternalBackend, "__call__", "satsolver.backend")
    tracer.wrap(mod["satsolver"].CdclSolver, "add_clause", "satsolver.add_clause")
    tracer.wrap(mod["satsolver"].CdclSolver, "solve", "satsolver.solve", count_verdict)
    tracer.wrap(mod["levels"], "load_level", "levels.load_level")
    tracer.wrap(mod["levels"], "render_trace", "levels.render_trace")
    tracer.wrap(mod["pddl"], "export_pddl_problem", "pddl.export")


def per_layer(workload, ctx, jobs, corpus) -> tuple[dict, PassResult, dict]:
    """One traced pass; the per-layer metrics and spans."""
    setup_tracer = Tracer()
    instrument(setup_tracer, ctx.mod)
    bundled, hard = level_paths(workload, corpus)
    with setup_tracer.root("setup"):
        for path in bundled + hard:
            ctx.mod["levels"].load_level(path)
    setup_tracer.unwrap_all()

    tracer = Tracer()
    instrument(tracer, ctx.mod)
    try:
        traced = run_pass(jobs, tracer)
    finally:
        tracer.unwrap_all()

    # Spans are timed on the wall clock (the CPU clock costs a system call
    # per read), so shares and rates are taken on it too.  The wrapper's
    # estimated cost is taken off the callers' self time and off the batch:
    # comparing the traced pass with an untraced one would measure mostly
    # the machine's drift between the two passes.
    cost = call_cost()
    overhead_s = tracer.wrapped_calls() * cost
    wall = sum(traced.walls) - overhead_s
    spans = tracer.by_name(cost)
    counts = tracer.counts

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def module_self(prefix):
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix + "."))

    m: dict[str, tuple[float, str]] = {}
    for fn in ENGINE_FNS:
        m[f"engine.{fn}.calls"] = (calls(f"engine.{fn}"), "count")
        m[f"engine.{fn}.self_s"] = (self_s(f"engine.{fn}"), "s")

    # SAT results reuse SearchStats with other meanings (`generated` holds
    # clauses), so only planner jobs feed the planner counts.
    stats = traced.stats if workload == "plan-hard" else []
    for key in ("expanded", "generated", "duplicates", "dead_ends", "max_frontier"):
        agg = max if key == "max_frontier" else sum
        m[f"planner.{key}"] = (agg(getattr(s, key) for s in stats) if stats else 0, "count")
    generated = m["planner.generated"][0]
    pruned = m["planner.duplicates"][0] + m["planner.dead_ends"][0]
    m["planner.generated_per_s"] = (generated / wall, "1/s")
    m["planner.useful_ratio"] = ((generated - pruned) / generated if generated else 0.0, "ratio")
    m["planner.heuristic.calls"] = (calls("planner.heuristic"), "count")
    m["planner.heuristic.self_s"] = (self_s("planner.heuristic"), "s")
    m["planner.self_s"] = (module_self("planner"), "s")

    encode_s = self_s("encoder.encode")
    m["encoder.encode.calls"] = (calls("encoder.encode"), "count")
    m["encoder.encode.self_s"] = (encode_s, "s")
    m["encoder.vars"] = (counts["encoder.vars"], "count")
    m["encoder.clauses"] = (counts["encoder.clauses"], "count")
    m["encoder.clauses_per_s"] = (counts["encoder.clauses"] / encode_s if encode_s else 0.0, "1/s")
    m["encoder.decode.calls"] = (calls("encoder.decode"), "count")
    m["encoder.decode.self_s"] = (self_s("encoder.decode"), "s")

    dimacs_s = self_s("cnf.to_dimacs")
    m["cnf.to_dimacs.calls"] = (calls("cnf.to_dimacs"), "count")
    m["cnf.to_dimacs.self_s"] = (dimacs_s, "s")
    m["cnf.dimacs_bytes"] = (counts["cnf.dimacs_bytes"], "B")
    m["cnf.dimacs_mb_per_s"] = (counts["cnf.dimacs_bytes"] / 1e6 / dimacs_s if dimacs_s else 0.0, "MB/s")

    for fn in ("add_clause", "solve"):
        m[f"satsolver.{fn}.calls"] = (calls(f"satsolver.{fn}"), "count")
        m[f"satsolver.{fn}.self_s"] = (self_s(f"satsolver.{fn}"), "s")
    m["satsolver.sat_calls"] = (counts["satsolver.sat_calls"], "count")
    m["satsolver.unsat_calls"] = (counts["satsolver.unsat_calls"], "count")

    m["levels.load_level.self_s"] = (setup_tracer.by_name()["levels.load_level"][2], "s")
    m["levels.render_trace.self_s"] = (self_s("levels.render_trace"), "s")
    m["pddl.export.self_s"] = (self_s("pddl.export"), "s")

    for layer in ("engine", "planner", "encoder", "cnf", "satsolver", "levels", "pddl"):
        m[f"{layer}.self_share"] = (module_self(layer) / wall, "ratio")
    root_self = sum(v[2] for k, v in spans.items() if k.startswith("job:"))
    m["bench.self_share"] = (root_self / wall, "ratio")
    m["trace.overhead"] = (overhead_s / wall, "ratio")

    spans_doc = {"workload": workload, "setup": setup_tracer.as_dict(), "jobs": tracer.as_dict()}
    return m, traced, spans_doc


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="puzznic solver benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", type=pathlib.Path, default=HERE / "corpus")
    args = parser.parse_args(argv)
    start = time.perf_counter()  # set-up and the pass share `--seconds`

    if not (SRC / "puzznic" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (args.corpus / "answers.json").is_file():
        print(f"error: no answers.json under {args.corpus}", file=sys.stderr)
        return 2

    ctx = setup(args.workload, args.corpus)
    if not ctx.mod["engine"].__file__.startswith(str(SRC)):
        print(f"error: puzznic was imported from outside {SRC}", file=sys.stderr)
        return 2
    jobs = build_jobs(args.workload, ctx, args.seed)

    if args.trace:
        metrics, res, spans_doc = per_layer(args.workload, ctx, jobs, args.corpus)
        notes = {}
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(spans_doc, indent=1) + "\n", encoding="utf-8")
    else:
        setups = setup_times(args.workload, args.corpus)
        metrics, notes, res = end_to_end(jobs, start + args.seconds, setups)

    for line in res.wrong:
        print(f"wrong verdict: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} jobs {len(jobs)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"wrong_verdicts {len(res.wrong)} count")
    result = {
        "correct": not res.wrong,
        "attempted": len(jobs),
        "failed": len(jobs) - res.decided,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if res.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
