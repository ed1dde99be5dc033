"""Generate the seeded hard corpus and the recorded answers for both corpora.

    python3 benchmarks/gen_corpus.py --seed 7 --out benchmarks/corpus

writes `<out>/levels/*.txt` (the hard corpus: `hard0`, the level quoted in
ROADMAP.md, plus 20 levels drawn with `oracles.random_quiescent`) and
`<out>/answers.json`, the recorded answers that `run.py` checks every job
against.  The same seed reproduces both byte for byte; another seed gives a
fresh corpus, so a claim can be re-checked on levels it was not tuned on.

Selection is by deterministic effort, never by time: a candidate is kept when
its optimum is within `min_moves..max_moves` and a breadth-first search to
that optimum generates between `min_states` and `max_states` states.

Every recorded answer is cross-checked before it is written:

- move optima: planner `astar`, planner `bfs` and the independent
  `oracles.bfs_optimal_moves` must agree (all three `None` means unsolvable);
- step optima (the `sat-fixed` measure): on the bundled levels by
  `oracles.exact_step_sequence_exists`, as in the acceptance gate; on the
  hard levels, where that oracle takes minutes per level, by a uniform-cost
  search over engine moves weighted 1 + match events (no encoder involved),
  which is checked against the oracle on the bundled levels;
- the recorded plan (astar's) must replay to the goal at the move optimum.
"""

from __future__ import annotations

import argparse
import heapq
import json
import pathlib
import random
import sys
from collections import deque

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from puzznic import engine, levels, planner  # noqa: E402
from puzznic.engine import QuiescentState  # noqa: E402

BUNDLED_DIR = ROOT / "src" / "puzznic" / "levels"

# Levels every corpus starts with: hard0, verbatim from ROADMAP.md (optimum
# 8 moves).
FIXED_LEVELS = {
    "hard0": """\
########
#.#....#
#..G...#
#.##...#
#......#
#G.R..Y#
#O.OY.G#
#R.RG.R#
########
""",
}

DEFAULTS = dict(
    count=20,
    max_dim=10,
    n_patterns=4,
    min_moves=5,
    max_moves=12,
    min_states=600,
    max_states=6000,
)


class CrossCheckFailed(Exception):
    pass


def capped_bfs(state: QuiescentState, max_moves: int, cap: int) -> tuple[int | None, int]:
    """Move optimum within `max_moves` by breadth-first search, and the
    number of states generated.  Gives up (None) once `cap` is exceeded."""
    if engine.is_goal(state.grid):
        return 0, 0
    seen = {engine.state_key(state.grid)}
    frontier = deque([(state, 0)])
    generated = 0
    while frontier:
        node, depth = frontier.popleft()
        if depth >= max_moves:
            continue
        for move in engine.legal_moves(node):
            child, _, _ = engine.apply_move(node, move)
            generated += 1
            if generated > cap:
                return None, generated
            if engine.is_goal(child.grid):
                return depth + 1, generated
            key = engine.state_key(child.grid)
            if key not in seen:
                seen.add(key)
                frontier.append((child, depth + 1))
    return None, generated


def step_optimum(state: QuiescentState) -> int | None:
    """Fewest steps (moves plus match events) to the goal, by uniform-cost
    search over engine moves; None when the level is unsolvable."""
    if engine.is_goal(state.grid):
        return 0
    best = {engine.state_key(state.grid): 0}
    heap = [(0, 0, state)]
    seq = 0
    while heap:
        cost, _, node = heapq.heappop(heap)
        if engine.is_goal(node.grid):
            return cost
        if cost > best[engine.state_key(node.grid)]:
            continue
        for move in engine.legal_moves(node):
            child, _, matches = engine.apply_move(node, move)
            key = engine.state_key(child.grid)
            ncost = cost + 1 + matches
            if ncost < best.get(key, ncost + 1):
                best[key] = ncost
                seq += 1
                heapq.heappush(heap, (ncost, seq, child))
    return None


def oracle_step_optimum(lf: levels.LevelFile, moves: int | None) -> int | None:
    if moves is None:
        return None
    n = moves  # every move is a step, so the step optimum is at least `moves`
    while not oracles.exact_step_sequence_exists(lf.grid, n):
        n += 1
    return n


def move_answer(lf: levels.LevelFile) -> tuple[int | None, str | None]:
    """Cross-checked move optimum and an optimal plan in plan-file format."""
    state = QuiescentState(lf.grid)
    results = {algo: planner.solve(state, algo=algo) for algo in ("astar", "bfs")}
    costs = {
        algo: r.outcome.plan.cost if r.solved else None for algo, r in results.items()
    }
    costs["oracle"] = oracles.bfs_optimal_moves(state)
    if len(set(costs.values())) != 1:
        raise CrossCheckFailed(f"{lf.name}: move optima disagree {costs}")
    moves = costs["oracle"]
    if moves is None:
        return None, None
    plan = results["astar"].outcome.plan.moves
    for move in plan:
        state, _, _ = engine.apply_move(state, move)
    if not engine.is_goal(state.grid):
        raise CrossCheckFailed(f"{lf.name}: recorded plan does not clear the level")
    return moves, levels.emit_plan(plan)


def answer(lf: levels.LevelFile, steps: int | None) -> dict:
    moves, plan = move_answer(lf)
    if (moves is None) != (steps is None):
        raise CrossCheckFailed(f"{lf.name}: moves={moves} but steps={steps}")
    return {"moves": moves, "steps": steps, "plan": plan}


def draw_levels(seed: int, count: int, max_dim: int, n_patterns: int, min_moves: int,
                max_moves: int, min_states: int, max_states: int) -> list[str]:
    """Level texts drawn from `seed`, kept by the deterministic effort rule."""
    rng = random.Random(seed)
    texts: list[str] = []
    while len(texts) < count:
        state = oracles.random_quiescent(
            rng, max_h=max_dim, max_w=max_dim, n_patterns=n_patterns
        )
        if engine.is_goal(state.grid) or engine.is_dead_end(state.grid):
            continue
        moves, generated = capped_bfs(state, max_moves, max_states)
        if moves is None or moves < min_moves or generated < min_states:
            continue
        texts.append(levels.emit_level(state.grid))
    return texts


def generate(seed: int, out: pathlib.Path, fixed=FIXED_LEVELS, **params) -> None:
    """Write `out/levels/*.txt` and `out/answers.json` for `seed`: the
    `fixed` levels (name -> text) followed by the drawn ones."""
    params = {**DEFAULTS, **params}
    texts = dict(fixed)
    for i, text in enumerate(draw_levels(seed, **params), start=1):
        texts[f"r{seed}-{i:02d}"] = text

    hard = {}
    for name, text in texts.items():
        lf = levels.parse_level(text, name=name)
        hard[name] = answer(lf, step_optimum(QuiescentState(lf.grid)))
    bundled = {}
    for path in sorted(BUNDLED_DIR.glob("*.txt")):
        lf = levels.load_level(path)
        moves = oracles.bfs_optimal_moves(QuiescentState(lf.grid))
        steps = oracle_step_optimum(lf, moves)
        if steps != step_optimum(QuiescentState(lf.grid)):
            raise CrossCheckFailed(f"{lf.name}: step optimum disagrees with the oracle")
        bundled[lf.name] = answer(lf, steps)

    level_dir = out / "levels"
    level_dir.mkdir(parents=True, exist_ok=True)
    for stale in level_dir.glob("*.txt"):
        stale.unlink()
    for name, text in texts.items():
        (level_dir / f"{name}.txt").write_text(text, encoding="ascii")
    doc = {"generator": {"seed": seed, **params}, "hard": hard, "bundled": bundled}
    (out / "answers.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
