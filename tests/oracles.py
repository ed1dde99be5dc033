"""Independent reference implementations used to derive expected values.

These deliberately avoid the production code paths they check: gravity is a
one-cell-at-a-time fall applied in row-major order, cascades are driven by a
fall-first/match-second single-action loop, and optimal move counts come from
a plain breadth-first search written directly against the engine primitives.
At-most-one clauses are built one pair at a time and DIMACS is written one
`str()` per literal, as the reference for the encoder's builder and writer.
"""

from __future__ import annotations

import math
import random
from collections import deque

from puzznic import engine
from puzznic.cnf import ClauseBuilder, CnfInstance
from puzznic.engine import EMPTY, Grid, QuiescentState

NEIGHBOURS = ((-1, 0), (1, 0), (0, 1), (0, -1))


def single_fall_step(grid: Grid) -> Grid | None:
    """Drop the first (row-major) block that has an empty cell below it."""
    for r, c in grid.interior():
        v = grid.at(r, c)
        if v > EMPTY and grid.at(r + 1, c) == EMPTY:
            return grid.replace({(r, c): EMPTY, (r + 1, c): v})
    return None


def single_fall_fixpoint(grid: Grid) -> Grid:
    """Iterate one-cell falls until no block is floating."""
    while True:
        nxt = single_fall_step(grid)
        if nxt is None:
            return grid
        grid = nxt


def single_action_resolve(grid: Grid) -> tuple[Grid, int]:
    """Fall-then-match loop: falls drain one cell at a time, then every
    matching block is removed simultaneously.  Returns the fixpoint and the
    number of match removals."""
    matches = 0
    while True:
        nxt = single_fall_step(grid)
        if nxt is not None:
            grid = nxt
            continue
        matched = engine.find_matches(grid)
        if not matched:
            return grid, matches
        grid = engine.remove_matches(grid, matched)
        matches += 1


def grid_column_gap(grid: Grid) -> float:
    """Closest-pair column-gap lower bound on remaining moves, by a grid loop.

    The weaker bound the planner's heuristic must dominate: per pattern,
    (gap - 1) for the closest pair of blocks gap columns apart, summed; inf
    when some pattern has a single block.
    """
    columns: dict[int, list[int]] = {}
    for r, c in grid.interior():
        v = grid.at(r, c)
        if v > EMPTY:
            columns.setdefault(v, []).append(c)
    total = 0
    for cols in columns.values():
        if len(cols) == 1:
            return math.inf
        cols.sort()
        gap = min(b - a for a, b in zip(cols, cols[1:]))
        total += max(0, gap - 1)
    return total


def grid_max_block_gap(grid: Grid) -> float:
    """Max-block column-gap lower bound on remaining moves, by a grid loop.

    Reference for the planner's bitmask heuristic: per pattern, the largest
    over its blocks of (column distance to the nearest other block of the
    pattern - 1), at least 0, summed; inf when some pattern has a single
    block.
    """
    columns: dict[int, list[int]] = {}
    for r, c in grid.interior():
        v = grid.at(r, c)
        if v > EMPTY:
            columns.setdefault(v, []).append(c)
    total = 0
    for cols in columns.values():
        if len(cols) == 1:
            return math.inf
        nearest = [
            min(abs(a - b) for j, b in enumerate(cols) if j != i)
            for i, a in enumerate(cols)
        ]
        total += max(0, max(nearest) - 1)
    return total


def reach_partners(grid: Grid) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Partner cells of every non-wall interior cell, by set closure.

    Reference for `engine.reach_partners`: reach(x) is x closed under steps
    left, right and down into non-wall cells, and y != x is a partner of x
    when reach(y) holds an orthogonal neighbour of some cell of reach(x).
    """
    nonwall = [(r, c) for r, c in grid.interior() if grid.at(r, c) != engine.WALL]

    def reach(x):
        out, todo = {x}, [x]
        while todo:
            r, c = todo.pop()
            for nxt in ((r, c - 1), (r, c + 1), (r + 1, c)):
                if nxt not in out and grid.at(*nxt) != engine.WALL:
                    out.add(nxt)
                    todo.append(nxt)
        return out

    reaches = {x: reach(x) for x in nonwall}
    partners = {}
    for x in nonwall:
        touch = {(r + dr, c + dc) for r, c in reaches[x] for dr, dc in NEIGHBOURS}
        partners[x] = tuple(y for y in nonwall if y != x and reaches[y] & touch)
    return partners


def stranded_blocks(grid: Grid, partners) -> list[tuple[int, int]]:
    """Cells holding a block whose pattern is at none of its partner cells."""
    return [
        x
        for x, ys in partners.items()
        if grid.at(*x) > EMPTY and all(grid.at(*y) != grid.at(*x) for y in ys)
    ]


def random_grid(rng: random.Random, max_h: int = 8, max_w: int = 8,
                n_patterns: int = 3, p_wall: float = 0.12, p_block: float = 0.35) -> Grid:
    """Random perimeter-walled grid; the interior need not be quiescent."""
    h = rng.randint(3, max_h)
    w = rng.randint(3, max_w)
    rows = []
    for r in range(h):
        row = []
        for c in range(w):
            if r in (0, h - 1) or c in (0, w - 1):
                row.append(engine.WALL)
            else:
                x = rng.random()
                if x < p_wall:
                    row.append(engine.WALL)
                elif x < p_wall + p_block:
                    row.append(rng.randint(1, n_patterns))
                else:
                    row.append(EMPTY)
        rows.append(tuple(row))
    return Grid(tuple(rows))


def random_quiescent(rng: random.Random, **kwargs) -> QuiescentState:
    """Random grid resolved to quiescence."""
    state, _, _ = engine.resolve(random_grid(rng, **kwargs))
    return state


def bfs_optimal_moves(state: QuiescentState, cap: int = 100) -> int | None:
    """Exhaustive BFS over quiescent states; None if unsolvable within cap."""
    if engine.is_goal(state.grid):
        return 0
    seen = {engine.state_key(state.grid)}
    frontier = deque([(state, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth >= cap:
            continue
        for move in engine.legal_moves(node):
            child, _, _ = engine.apply_move(node, move)
            if engine.is_goal(child.grid):
                return depth + 1
            key = engine.state_key(child.grid)
            if key in seen:
                continue
            seen.add(key)
            frontier.append((child, depth + 1))
    return None


def reachable_graph(state: QuiescentState):
    """Forward-enumerate every quiescent state reachable from `state`.

    Returns (states, edges): key -> QuiescentState and key -> list of
    successor keys.  Used to compute exact remaining optima by a reverse
    sweep from the goal states.
    """
    root_key = engine.state_key(state.grid)
    states = {root_key: state}
    edges: dict[bytes, list[bytes]] = {}
    todo = deque([root_key])
    while todo:
        key = todo.popleft()
        node = states[key]
        succs = []
        for move in engine.legal_moves(node):
            child, _, _ = engine.apply_move(node, move)
            ckey = engine.state_key(child.grid)
            succs.append(ckey)
            if ckey not in states:
                states[ckey] = child
                todo.append(ckey)
        edges[key] = succs
    return states, edges


def exact_remaining_moves(states, edges) -> dict[bytes, int]:
    """Distance-to-goal for every node of a reachable graph (reverse BFS)."""
    reverse: dict[bytes, list[bytes]] = {k: [] for k in states}
    for k, succs in edges.items():
        for s in succs:
            reverse[s].append(k)
    dist: dict[bytes, int] = {}
    frontier = deque()
    for k, st in states.items():
        if engine.is_goal(st.grid):
            dist[k] = 0
            frontier.append(k)
    while frontier:
        k = frontier.popleft()
        for parent in reverse[k]:
            if parent not in dist:
                dist[parent] = dist[k] + 1
                frontier.append(parent)
    return dist


def exact_step_sequence_exists(grid: Grid, n_steps: int) -> bool:
    """Fixed-step-count oracle: is there an interleaving of exactly `n_steps`
    steps (a forced simultaneous match when one is pending, otherwise one
    player move with instant gravity) that clears the grid at step n?"""
    def settled(g: Grid) -> Grid:
        out, _ = engine.settle(g)
        return out

    memo: set[tuple[bytes, int]] = set()

    def search(g: Grid, left: int) -> bool:
        if left == 0:
            return engine.is_goal(g)
        key = (engine.state_key(g), left)
        if key in memo:
            return False
        memo.add(key)
        matched = engine.find_matches(g)
        if matched:
            return search(settled(engine.remove_matches(g, matched)), left - 1)
        for r, c in g.interior():
            if g.at(r, c) <= EMPTY:
                continue
            for d in (engine.LEFT, engine.RIGHT):
                if g.at(r, c + d) != EMPTY:
                    continue
                moved = g.replace({(r, c): EMPTY, (r, c + d): g.at(r, c)})
                if search(settled(moved), left - 1):
                    return True
        return False

    return search(settled(grid), n_steps)


class ReferenceClauseBuilder(ClauseBuilder):
    """Pairwise at-most-one clause by clause; swapped in for `ClauseBuilder`,
    it gives the clauses the encoder must produce where it goes through the
    builder's at-most-one (the other groups append their clauses directly)."""

    def at_most_one(self, lits) -> None:
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.clauses.append((-lits[i], -lits[j]))


def reference_dimacs(instance: CnfInstance) -> str:
    """DIMACS text with every literal converted by str()."""
    lines = []
    for var, _ in instance.varmap.iter_meanings():
        desc = instance.varmap.describe(var)
        if desc is not None:
            lines.append(f"c map {var} {desc}")
    lines.append(f"p cnf {instance.num_vars} {len(instance.clauses)}")
    for clause in instance.clauses:
        lines.append(" ".join([*map(str, clause), "0"]))
    return "\n".join(lines) + "\n"
