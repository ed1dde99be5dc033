"""Command line: solve, encode, check, show, export, bench.

Exit codes form a stable contract: 0 success, 1 parse/validation and usage
errors, 2 proved unsolvable within the bound (solve) or plan rejected
(check), 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from puzznic import encoder, engine, levels, pddl, planner
from puzznic.backends import ENV_BACKEND, BackendFailure, default_backend
from puzznic.engine import QuiescentState
from puzznic.levels import LevelError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2
EXIT_BUDGET = 3

PLANNER_METHODS = ("bfs", "astar", "iddfs")
SAT_METHODS = ("sat-fixed", "sat-varmoves")
ALL_METHODS = PLANNER_METHODS + SAT_METHODS

_BUNDLED = pathlib.Path(__file__).parent / "levels"


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


_MINIMUM = {"max_moves": 0, "time_limit": 0, "timeout": 0, "workers": 1}


def _out_of_range(**values) -> str | None:
    """An error message for the first option below its minimum, if any."""
    for name, value in values.items():
        if value is not None and not value >= _MINIMUM[name]:  # also rejects nan
            return f"--{name.replace('_', '-')} must be >= {_MINIMUM[name]}, got {value}"
    return None


def cmd_solve(args) -> int:
    bad = _out_of_range(max_moves=args.max_moves, time_limit=args.time_limit)
    if bad:
        return _fail(bad)
    try:
        lf = levels.load_level(args.level, pre_resolve=args.pre_resolve)
    except (LevelError, OSError) as exc:
        return _fail(str(exc))
    try:
        result = planner.solve(
            QuiescentState(lf.grid),
            max_moves=args.max_moves,
            algo=args.algo,
            time_limit=args.time_limit,
        )
    except MemoryError:
        print("budget exhausted before a verdict: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    print(result.stats.as_text(), file=sys.stderr)
    if isinstance(result.outcome, planner.Solved):
        sys.stdout.write(levels.emit_plan(result.outcome.plan.moves))
        return EXIT_OK
    if isinstance(result.outcome, planner.ProvedUnsolvable):
        sys.stderr.write(planner.prove_unsolvable_report(result))
        return EXIT_UNSOLVABLE
    print(f"budget exhausted before a verdict: {result.outcome.reason}", file=sys.stderr)
    return EXIT_BUDGET


def cmd_encode(args) -> int:
    try:
        lf = levels.load_level(args.level)
        if args.mode == "fixed":
            instance = encoder.encode_fixed(lf.grid, args.horizon)
        else:
            instance = encoder.encode_varmoves(lf.grid, args.horizon)
    except (LevelError, encoder.EncoderError, engine.EngineError, OSError) as exc:
        return _fail(str(exc))
    text = instance.to_dimacs()
    if args.output:
        try:
            pathlib.Path(args.output).write_text(text, encoding="ascii")
        except OSError as exc:
            return _fail(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(text)
    print(
        f"variables={instance.num_vars} clauses={len(instance.clauses)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _replay(level_path, plan_path):
    """Read the level and plan files and replay the plan on the level."""
    lf = levels.load_level(level_path)
    try:
        text = pathlib.Path(plan_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LevelError(f"{plan_path}: plan is not UTF-8 text ({exc.reason})") from None
    return lf, *engine.replay(lf.grid, levels.parse_plan(text))


def cmd_check(args) -> int:
    try:
        _, trace, bad_step, why = _replay(args.level, args.plan)
    except (LevelError, OSError) as exc:
        return _fail(str(exc))
    if bad_step is not None:
        print(f"illegal move at step {bad_step}: {why}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    if not engine.is_goal(trace.final):
        print("plan is legal but the final state is not cleared", file=sys.stderr)
        return EXIT_UNSOLVABLE
    print("plan ok", file=sys.stderr)
    return EXIT_OK


def cmd_show(args) -> int:
    try:
        lf, trace, bad_step, why = _replay(args.level, args.plan)
    except (LevelError, OSError) as exc:
        return _fail(str(exc))
    sys.stdout.write(levels.render_trace(trace, lf.symbol_table))
    if bad_step is not None:
        print(f"illegal move at step {bad_step}: {why}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    return EXIT_OK


def cmd_export(args) -> int:
    try:
        lf = levels.load_level(args.level)
        problem = pddl.export_pddl_problem(lf.grid, lf.name or "level", lf.symbol_table)
    except (LevelError, engine.EngineError, OSError) as exc:
        return _fail(str(exc))
    out_dir = pathlib.Path(args.out_dir)
    domain_path = out_dir / "domain.pddl"
    problem_path = out_dir / f"{lf.name or 'level'}.pddl"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        domain_path.write_text(pddl.export_pddl_domain(), encoding="ascii")
        problem_path.write_text(problem, encoding="ascii")
    except OSError as exc:
        return _fail(f"cannot write to {out_dir}: {exc}")
    print(f"wrote {domain_path} and {problem_path}", file=sys.stderr)
    return EXIT_OK


def _bench_row(level_path: pathlib.Path, method: str, timeout: float, max_moves: int):
    name = level_path.stem
    try:
        lf = levels.load_level(level_path)
    except (LevelError, OSError) as exc:
        print(f"skipping {name}: {exc}", file=sys.stderr)
        return (name, method, "E", "-", "-", "0.00")
    mode = method.removeprefix("sat-")
    measure = "steps" if mode == "fixed" else "moves"
    start = time.monotonic()
    try:
        if method in PLANNER_METHODS:
            result = planner.solve(
                QuiescentState(lf.grid),
                max_moves=max_moves,
                algo=method,
                time_limit=timeout,
            )
        else:
            bound = max_moves
            if mode == "fixed":
                bound = max_moves + encoder.max_match_steps(lf.grid)
            result = encoder.solve_iterative(
                lf.grid,
                mode=mode,
                bound=bound,
                backend=default_backend(),
                time_limit=timeout,
            )
    except MemoryError:
        return (name, method, "M", "-", "-", f"{time.monotonic() - start:.2f}")
    except BackendFailure as exc:
        print(f"{name}/{method}: {exc}", file=sys.stderr)
        return (name, method, "E", "-", "-", f"{time.monotonic() - start:.2f}")
    elapsed = f"{result.stats.elapsed:.2f}"
    if isinstance(result.outcome, planner.Solved):
        trace = result.outcome.trace
        cost = trace.move_count + (trace.match_count if measure == "steps" else 0)
        return (name, method, "Y", str(cost), measure, elapsed)
    if isinstance(result.outcome, planner.ProvedUnsolvable):
        return (name, method, "U", "-", measure, elapsed)
    if result.outcome.reason == planner.STATE_LIMIT:
        return (name, method, "M", "-", measure, elapsed)
    return (name, method, "N", "-", measure, elapsed)


def cmd_bench(args) -> int:
    bad = _out_of_range(
        max_moves=args.max_moves, timeout=args.timeout, workers=args.workers
    )
    if bad:
        return _fail(bad)
    corpus_dir = pathlib.Path(args.corpus) if args.corpus else _BUNDLED
    if not corpus_dir.is_dir():
        return _fail(f"corpus {corpus_dir} is not a directory")
    paths = sorted(corpus_dir.glob("*.txt"))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ALL_METHODS:
            return _fail(f"unknown method {m!r} (choose from {', '.join(ALL_METHODS)})")
    # the options ride in each job: `repeat` beside an empty job list would
    # never end the pool's argument stream
    jobs = [(p, m, args.timeout, args.max_moves) for p in paths for m in methods]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_bench_row, *zip(*jobs)))
    else:
        rows = [_bench_row(*job) for job in jobs]
    rows.sort(key=lambda row: (row[0], row[1]))
    header = ("instance", "method", "outcome", "cost", "measure", "seconds")
    print("\t".join(header))
    for row in rows:
        print("\t".join(row))
    widths = [
        max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))
    ]
    for row in [header, *rows]:
        print(
            "  ".join(str(col).ljust(w) for col, w in zip(row, widths)),
            file=sys.stderr,
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2, which means unsolvable here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="puzznic",
        description="Solve, encode, validate, and export static-grid Puzznic levels.",
        epilog=f"Set {ENV_BACKEND} to route CNF solving to an external DIMACS solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a minimum-move plan")
    p.add_argument("level")
    p.add_argument("--algo", choices=PLANNER_METHODS, default="astar")
    p.add_argument("--max-moves", type=int, default=planner.DEFAULT_MAX_MOVES)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument(
        "--pre-resolve",
        action="store_true",
        help="resolve a non-quiescent level to quiescence before solving",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("encode", help="emit a DIMACS CNF for a level")
    p.add_argument("level")
    p.add_argument("--mode", choices=("fixed", "varmoves"), default="fixed")
    p.add_argument(
        "--horizon",
        type=int,
        required=True,
        help="exact step count (fixed) or move budget (varmoves)",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("check", help="validate a plan file against a level")
    p.add_argument("level")
    p.add_argument("plan")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("show", help="render a plan's full playback")
    p.add_argument("level")
    p.add_argument("plan")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("export", help="write PDDL domain and problem files")
    p.add_argument("level")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("bench", help="run solver methods over a level corpus")
    p.add_argument(
        "corpus",
        nargs="?",
        default=None,
        help="directory of .txt levels (default: bundled corpus)",
    )
    p.add_argument("--methods", default=",".join(ALL_METHODS))
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--max-moves", type=int, default=planner.DEFAULT_MAX_MOVES)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
