"""Optimal forward search over quiescent states, minimizing player moves.

Matches and falls are free: the cost of a plan is the number of moves.  All
three algorithms (bfs, astar, iddfs) return minimum-move plans.  They search
on the engine's trusted mask path: the root `Grid` is validated once and
turned into an `engine.Board`, a state is one int that packs a bitmask per
pattern, and that int is the duplicate-detection key, so no child is built
as a `Grid`.  bfs and astar run one best-first loop; bfs is astar with h = 0.
The loop tests for the goal when it generates a child, not when it pops
one, so it stops without expanding the rest of the last layer.  astar's h
is an admissible bound built from horizontal distances: a block whose
nearest block of the same pattern is d columns away needs at least d-1
moves of that pattern before it can match, and every move shifts one
block of one pattern by one column (`engine.Board.column_gap`).  iddfs
prunes only cycles on its path.  All three prune duplicates and dead ends
(a pattern with a single block).  bfs and astar stop with
BudgetExhausted("state limit") once they store more than `MAX_STATES`
states, so memory stays bounded.  The plan found is replayed once through
`engine.replay` for its `Trace`; a plan that does not replay to the goal can
only mean a `Board` bug and raises PlannerError.
"""

from __future__ import annotations

import time
from functools import partial
from dataclasses import dataclass, field

from puzznic import engine
from puzznic.engine import Grid, Move, QuiescentState, Trace

DEFAULT_MAX_MOVES = 100
# States bfs and astar may store before they give up.  A stored state costs
# about 200 bytes of peak memory (its parents entry, its frontier entry and
# its share of the column-gap memo; 196 bytes at 1M states of an astar search
# on a 10x10 level with 4 patterns), so a capped search stays under 512 MB.
MAX_STATES = 2_000_000
STATE_LIMIT = "state limit"  # the BudgetExhausted reason when MAX_STATES bites


class PlannerError(Exception):
    pass


class InvalidBound(PlannerError):
    pass


class WrongOutcome(PlannerError):
    pass


@dataclass(frozen=True)
class Plan:
    """An ordered move sequence; cost is the move count."""

    moves: tuple[Move, ...]

    @property
    def cost(self) -> int:
        return len(self.moves)


@dataclass
class SearchStats:
    expanded: int = 0
    generated: int = 0
    duplicates: int = 0
    dead_ends: int = 0
    pruned_bound: int = 0  # A* states cut because g + h exceeds max_moves
    max_frontier: int = 0
    elapsed: float = 0.0

    def as_text(self) -> str:
        return (
            f"expanded={self.expanded} generated={self.generated} "
            f"duplicates={self.duplicates} dead_ends={self.dead_ends} "
            f"pruned_bound={self.pruned_bound} max_frontier={self.max_frontier} "
            f"elapsed={self.elapsed:.3f}s"
        )


@dataclass(frozen=True)
class Solved:
    plan: Plan
    trace: Trace


@dataclass(frozen=True)
class ProvedUnsolvable:
    within_bound: int


@dataclass(frozen=True)
class BudgetExhausted:
    reason: str = "time limit"


Outcome = Solved | ProvedUnsolvable | BudgetExhausted


@dataclass
class SearchResult:
    outcome: Outcome
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def solved(self) -> bool:
        return isinstance(self.outcome, Solved)


def heuristic_column_gap(grid: Grid) -> float:
    """Admissible lower bound on remaining moves; inf for dead ends.

    This is `engine.Board.column_gap`, the bound astar searches with,
    applied to one grid: per pattern, the largest over its blocks of (the
    column distance to the nearest other block of the pattern - 1), summed.
    """
    board = engine.Board(grid)
    return board.column_gap(board.encode(grid))


class _Budget:
    """Time and state limits, checked on the first call and then every 64th,
    so a search stops at the same pop whenever the state limit bites."""

    def __init__(self, time_limit: float | None):
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self._tick = 0

    def check(self, states: int = 0) -> None:
        """Raise _Exhausted with the reason once the search, which stores
        `states` states, must stop."""
        self._tick += 1
        if self._tick % 64 != 1:
            return
        if states > MAX_STATES:
            raise _Exhausted(STATE_LIMIT)
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise _Exhausted("time limit")


def solve(
    state: QuiescentState,
    max_moves: int = DEFAULT_MAX_MOVES,
    algo: str = "bfs",
    time_limit: float | None = None,
) -> SearchResult:
    """Find a minimum-move plan of at most `max_moves` moves.

    Returns Solved with an optimal plan, ProvedUnsolvable(max_moves) when the
    bounded duplicate-free search space is exhausted, or BudgetExhausted when
    the time or state limit bites first.
    """
    if max_moves < 0:
        raise InvalidBound(f"max_moves must be >= 0, got {max_moves}")
    search = _SEARCHES.get(algo)
    if search is None:
        raise ValueError(f"unknown algorithm {algo!r}")
    start = time.monotonic()
    stats = SearchStats()
    budget = _Budget(time_limit)
    board = engine.Board(state.grid)
    root = board.encode(state.grid)

    try:
        if not root:
            found = []
        elif board.is_dead_end(root):
            stats.generated = stats.dead_ends = 1  # the root itself
            found = None
        else:
            found = search(board, root, max_moves, stats, budget)
    except _Exhausted as exc:
        outcome = BudgetExhausted(str(exc))
    else:
        if found is None:
            outcome = ProvedUnsolvable(max_moves)
        else:
            trace, bad, why = engine.replay(state.grid, found)
            if bad is not None:
                raise PlannerError(f"plan move {bad} fails replay: {why}")
            if not engine.is_goal(trace.final):
                raise PlannerError("plan does not clear the level on replay")
            outcome = Solved(Plan(tuple(found)), trace)
    stats.elapsed = time.monotonic() - start
    return SearchResult(outcome, stats)


# The search loops return the plan's moves, or None when the bounded space is
# exhausted, and raise _Exhausted when the budget bites.  States are
# `engine.Board` ints, which are also the duplicate-detection keys.
class _Exhausted(Exception):
    pass


def _path(parents: dict, key: int) -> list[Move]:
    moves: list[Move] = []
    while True:
        _, key, move = parents[key]
        if key is None:
            break
        moves.append(move)
    moves.reverse()
    return moves


def _best_first(board, root, max_moves, stats, budget, heuristic=None):
    """Best-first search on f = g + max(h, 1) from a root that is not the
    goal, with the goal tested when a child is generated.

    A state that is not the goal needs at least one more move, so the floor
    of 1 keeps f a lower bound on the cost of any plan through it.  With an
    admissible h, an entry on an optimal path stays open until a plan is
    found, so every popped f is at most the optimum.  A popped entry is
    never the goal and has f >= g + 1, so a goal child of it costs
    g + 1 <= f <= the optimum: the loop returns the first goal child it
    generates, and never pushes a goal.  bfs passes no `heuristic`: h = 0,
    and states pop in breadth-first order.

    The frontier is a bucket queue: `open_` maps the key f * K - g, with
    K = max_moves + 1 > g, to a stack of states, and `lo` is its lowest key.
    So the lowest f pops first, then the deepest g, then the newest state:
    the order of a heap on (f, -g, a push count that runs down), with no
    comparisons.  Diving along the latest ties reaches a goal child sooner.

    `parents` maps each state reached to (best g, parent, move).  A popped
    entry above its state's best g is stale and skipped, so plans stay
    optimal even under an inconsistent h.  Children whose g + h exceeds
    `max_moves` are cut.  The counters run in locals and are added to
    `stats` on the way out, a timeout included.

    A child with as many blocks as its parent had no match, so each of its
    patterns has the parent's block count.  A popped state is neither the
    goal nor a dead end (the root is tested in `solve`, a child before it
    is pushed), so such a child is neither: only a child that lost blocks
    is tested for both.
    """
    h0 = heuristic(board, root) if heuristic else 0
    if h0 > max_moves:
        stats.pruned_bound += 1
        return None
    successors, is_dead_end = board.successors, board.is_dead_end
    parents: dict[int, tuple] = {root: (0, None, None)}
    K = max_moves + 1
    lo = max(h0, 1) * K
    open_: dict[int, list[int]] = {lo: [root]}
    size = 1
    expanded = generated = duplicates = dead_ends = pruned = max_frontier = 0
    try:
        while open_:
            if size > max_frontier:
                max_frontier = size
            g = -lo % K
            stack = open_[lo]
            node = stack.pop()
            size -= 1
            if not stack:
                del open_[lo]
                lo = min(open_, default=float("inf"))
            budget.check(len(parents))
            if g > parents[node][0] or g >= max_moves:
                continue
            expanded += 1
            ng = g + 1
            n = node.bit_count()
            for move, child in successors(node):
                generated += 1
                matched = child.bit_count() != n
                if matched and not child:
                    return _path(parents, node) + [move]
                best = parents.get(child)
                if best is not None and ng >= best[0]:
                    duplicates += 1
                    continue
                if matched and is_dead_end(child):
                    dead_ends += 1
                    continue
                h = heuristic(board, child) if heuristic else 0
                if ng + h > max_moves:
                    pruned += 1
                    continue
                key = (ng + max(h, 1)) * K - ng
                parents[child] = (ng, node, move)
                bucket = open_.get(key)
                if bucket is None:
                    open_[key] = [child]
                else:
                    bucket.append(child)
                size += 1
                if key < lo:
                    lo = key
        return None
    finally:
        stats.expanded += expanded
        stats.generated += generated
        stats.duplicates += duplicates
        stats.dead_ends += dead_ends
        stats.pruned_bound += pruned
        stats.max_frontier = max(stats.max_frontier, max_frontier)


def _solve_iddfs(board, root, max_moves, stats, budget):
    def dfs(node, depth, limit, path, moves):
        budget.check()
        if not node:
            return list(moves)
        if depth == limit:
            return None
        stats.expanded += 1
        stats.max_frontier = max(stats.max_frontier, depth + 1)
        for move, child in board.successors(node):
            stats.generated += 1
            if child in path:
                stats.duplicates += 1
                continue
            if board.is_dead_end(child):
                stats.dead_ends += 1
                continue
            path.add(child)
            moves.append(move)
            found = dfs(child, depth + 1, limit, path, moves)
            moves.pop()
            path.discard(child)
            if found is not None:
                return found
        return None

    for limit in range(0, max_moves + 1):
        found = dfs(root, 0, limit, {root}, [])
        if found is not None:
            return found
    return None


_SEARCHES = {
    "bfs": _best_first,
    "astar": partial(_best_first, heuristic=engine.Board.column_gap),
    "iddfs": _solve_iddfs,
}


def prove_unsolvable_report(result: SearchResult) -> str:
    """Human-readable certificate summary for a ProvedUnsolvable result."""
    if not isinstance(result.outcome, ProvedUnsolvable):
        raise WrongOutcome(f"result outcome is {type(result.outcome).__name__}")
    s = result.stats
    lines = [
        f"unsolvable within a {result.outcome.within_bound}-move horizon",
        f"states expanded: {s.expanded}",
        f"states generated: {s.generated}",
        f"duplicates pruned: {s.duplicates}",
        f"dead ends pruned: {s.dead_ends}",
        f"bound pruned: {s.pruned_bound}",
    ]
    if s.expanded == 0 and s.dead_ends > 0:
        lines.append("root state is a dead end (a pattern has a single block left)")
    return "\n".join(lines) + "\n"
