"""Rules engine for static-grid Puzznic.

A level is a rectangular grid with a full wall perimeter.  Interior cells are
walls, empties, or pattern blocks (ids 1..9).  The player slides one block
left or right into an empty cell; gravity then settles every column, and any
block with an orthogonal same-pattern neighbour is removed.  Removals repeat
(settle, match, settle, ...) until the grid is quiescent.  All values here
are immutable and every operation is a pure function.

A cascade round settles only the columns where a block can float, and
matches only within a column of them, since a new match needs a cell that
changed.  After a move from a quiescent state those are the source and
target columns.  After a simultaneous removal no untouched cell holds a
match (it would have gone with the rest), so they are the removed cells'
columns.  `settle`, `find_matches` and `resolve` run the same code on every
column, so they take any grid.

`replay` resolves its start grid and plays a move list into a `Trace`; it
is the one loop over `apply_move`.  `verify_trace` is one replay plus one
comparison, and every plan, trace and decoded SAT model is checked by a replay.

`Grid`, `QuiescentState` and `Trace` are the validated public boundary.
Search runs on `Board`, a trusted bitmask form of the same rules that is
built once per level, packs each state into one int and validates nothing
per state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

WALL = -1
EMPTY = 0
MAX_PATTERN = 9
MIN_DIM = 3
MAX_DIM = 32

LEFT = -1
RIGHT = +1


class EngineError(Exception):
    """Base class for rule violations reported by the engine."""


class PositionNotPatterned(EngineError):
    """A removal targeted a cell that does not hold a pattern block."""


class IllegalMove(EngineError):
    """A move whose source is not a block or whose target is not empty."""


def _check_cell(value: int) -> None:
    if value != WALL and not (EMPTY <= value <= MAX_PATTERN):
        raise ValueError(f"bad cell value {value!r}")


@dataclass(frozen=True)
class Grid:
    """Board state: row-major cells, 1-based (row 1 at the top).

    The constructor enforces the structural invariants: rectangular,
    dimensions within 3..32, and a complete wall perimeter.  Grids derived
    from a valid one by the rules are not checked again in full.
    """

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        h = len(self.cells)
        if h < MIN_DIM or h > MAX_DIM:
            raise ValueError(f"grid height {h} outside {MIN_DIM}..{MAX_DIM}")
        w = len(self.cells[0])
        if w < MIN_DIM or w > MAX_DIM:
            raise ValueError(f"grid width {w} outside {MIN_DIM}..{MAX_DIM}")
        for row in self.cells:
            if len(row) != w:
                raise ValueError("grid rows have unequal lengths")
            for v in row:
                _check_cell(v)
        for c in range(w):
            if self.cells[0][c] != WALL or self.cells[h - 1][c] != WALL:
                raise ValueError("missing wall perimeter (top/bottom)")
        for r in range(h):
            if self.cells[r][0] != WALL or self.cells[r][w - 1] != WALL:
                raise ValueError("missing wall perimeter (left/right)")

    @property
    def height(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return len(self.cells[0])

    def at(self, row: int, col: int) -> int:
        """Cell value at 1-based (row, col)."""
        return self.cells[row - 1][col - 1]

    def interior(self) -> Iterator[tuple[int, int]]:
        """All 1-based interior coordinates, row-major."""
        for r in range(2, self.height):
            for c in range(2, self.width):
                yield r, c

    @classmethod
    def _trusted(cls, cells: tuple[tuple[int, ...], ...]) -> Grid:
        """A grid for cells derived from a valid grid: not checked again."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "cells", cells)
        return grid

    def replace(self, updates: dict[tuple[int, int], int]) -> Grid:
        """New grid with the given 1-based cells replaced; only those are
        checked (in the grid, a legal value, the perimeter kept a wall)."""
        h, w = self.height, self.width
        rows = list(self.cells)  # only the rows written are rebuilt
        for (r, c), v in updates.items():
            if not (1 <= r <= h and 1 <= c <= w):
                raise ValueError(f"cell ({r}, {c}) outside the {h}x{w} grid")
            _check_cell(v)
            if v != WALL and (r in (1, h) or c in (1, w)):
                raise ValueError(f"missing wall perimeter at ({r}, {c})")
            rows[r - 1] = rows[r - 1][: c - 1] + (v,) + rows[r - 1][c:]
        return Grid._trusted(tuple(rows))


@dataclass(frozen=True)
class Move:
    """One player action: slide the block at (row, col) left or right."""

    row: int
    col: int
    dir: int  # LEFT (-1) or RIGHT (+1)

    def __post_init__(self) -> None:
        if self.dir not in (LEFT, RIGHT):
            raise ValueError(f"move direction must be -1 or +1, got {self.dir}")


@dataclass(frozen=True)
class MoveEvent:
    move: Move
    after: Grid


@dataclass(frozen=True)
class FallEvent:
    after: Grid


@dataclass(frozen=True)
class MatchEvent:
    removed: frozenset[tuple[int, int]]
    after: Grid


Event = MoveEvent | FallEvent | MatchEvent


@dataclass(frozen=True)
class Trace:
    """A replayable account: initial grid plus the ordered events."""

    initial: Grid
    events: tuple[Event, ...]

    @property
    def final(self) -> Grid:
        return self.events[-1].after if self.events else self.initial

    @property
    def move_count(self) -> int:
        return sum(1 for e in self.events if isinstance(e, MoveEvent))

    @property
    def match_count(self) -> int:
        return sum(1 for e in self.events if isinstance(e, MatchEvent))


@dataclass(frozen=True)
class QuiescentState:
    """A settled grid with no pending matches: the player acts only here."""

    grid: Grid

    def __post_init__(self) -> None:
        pos = find_unsettled(self.grid)
        if pos is not None:
            raise EngineError(f"grid not settled: floating block at {pos}")
        matched = find_matches(self.grid)
        if matched:
            raise EngineError(f"grid has pending matches at {sorted(matched)}")

    @classmethod
    def _trusted(cls, grid: Grid) -> QuiescentState:
        """A state for a grid the caller has just settled and found no
        match in, without checking that again."""
        state = object.__new__(cls)
        object.__setattr__(state, "grid", grid)
        return state


def find_unsettled(grid: Grid) -> tuple[int, int] | None:
    """First (row-major) pattern cell resting on an empty cell, if any."""
    cells = grid.cells
    for r in range(1, len(cells) - 1):
        for c, (v, below) in enumerate(zip(cells[r], cells[r + 1])):
            if v > EMPTY and below == EMPTY:
                return r + 1, c + 1
    return None


def settle(grid: Grid) -> tuple[Grid, bool]:
    """Apply gravity to fixpoint in every column; no matching is performed.

    Within each column, blocks drop to the bottom of their wall-delimited
    segment, preserving their top-to-bottom order.  Returns the settled grid
    and whether anything fell.
    """
    return _settle(grid, range(1, grid.width - 1))


def _settle(grid: Grid, cols) -> tuple[Grid, bool]:
    """`settle` in the given 0-based columns only."""
    cells, rows = grid.cells, None
    for c in cols:
        column = [row[c] for row in cells]
        packed, blocks, run = [], [], 0
        for v in column:  # the perimeter wall at the bottom closes the last segment
            if v == WALL:
                packed += [EMPTY] * (run - len(blocks))
                packed += blocks
                packed.append(WALL)
                blocks, run = [], 0
            else:
                run += 1
                if v:
                    blocks.append(v)
        if packed != column:
            rows = rows or [list(row) for row in cells]
            for row, v in zip(rows, packed):
                row[c] = v
    if rows is None:
        return grid, False
    return Grid._trusted(tuple(map(tuple, rows))), True


def find_matches(grid: Grid) -> set[tuple[int, int]]:
    """Positions of pattern cells with an orthogonal same-pattern neighbour."""
    return _find_matches(grid, range(1, grid.width - 1))


def _find_matches(grid: Grid, cols) -> set[tuple[int, int]]:
    """`find_matches` among the cells of the given 0-based columns."""
    cells, out = grid.cells, set()
    for c in cols:
        for r in range(1, len(cells) - 1):
            row = cells[r]
            v = row[c]
            if v > EMPTY and v in (row[c - 1], row[c + 1], cells[r - 1][c], cells[r + 1][c]):
                out.add((r + 1, c + 1))
    return out


def remove_matches(grid: Grid, positions: set[tuple[int, int]]) -> Grid:
    """Simultaneously empty the given cells; each must hold a pattern block.
    Only the rows written are rebuilt."""
    h, w, rows = grid.height, grid.width, list(grid.cells)
    for r, c in positions:
        if not (1 < r < h and 1 < c < w) or rows[r - 1][c - 1] <= EMPTY:
            raise PositionNotPatterned(f"cell ({r}, {c}) holds no pattern block")
        rows[r - 1] = rows[r - 1][: c - 1] + (EMPTY,) + rows[r - 1][c:]
    return Grid._trusted(tuple(rows))


def resolve(grid: Grid) -> tuple[QuiescentState, tuple[Event, ...], int]:
    """Run the cascade fixpoint: settle, remove one simultaneous match, repeat.

    Matching only ever happens on a settled grid.  Returns the quiescent
    state, the fall/match events in order, and the number of match events.
    """
    return _resolve(grid, range(1, grid.width - 1))


def _resolve(grid: Grid, cols) -> tuple[QuiescentState, tuple[Event, ...], int]:
    """`resolve` of a grid settled outside the 0-based columns `cols`
    whose settled form has no match more than a column away from them."""
    events: list[Event] = []
    matches, last = 0, grid.width - 1
    while True:
        grid, fell = _settle(grid, cols)
        if fell:
            events.append(FallEvent(after=grid))
        near = {x for c in cols for x in (c - 1, c, c + 1) if 0 < x < last}
        matched = _find_matches(grid, near)
        if not matched:
            break
        grid = remove_matches(grid, matched)
        events.append(MatchEvent(removed=frozenset(matched), after=grid))
        matches += 1
        cols = {c - 1 for _, c in matched}
    return QuiescentState._trusted(grid), tuple(events), matches


def legal_moves(state: QuiescentState) -> tuple[Move, ...]:
    """Moves of a block into an adjacent empty cell, row-major, left first."""
    grid = state.grid
    out: list[Move] = []
    for r, c in grid.interior():
        if grid.at(r, c) <= EMPTY:
            continue
        for d in (LEFT, RIGHT):
            if grid.at(r, c + d) == EMPTY:
                out.append(Move(r, c, d))
    return tuple(out)


def apply_move(state: QuiescentState, move: Move) -> tuple[QuiescentState, Trace, int]:
    """Slide one block, then resolve the resulting cascade to its end.

    The moved block falls to rest before any matching happens, and blocks
    stacked on the vacated cell fall too.  Raises IllegalMove unless the
    source is an interior block and the target empty.  Returns the new
    quiescent state, the full trace (move event plus resolve events), and
    the match count.  Each call is one whole step, the move and its cascade
    to the end; `verify_trace` accepts only traces made of such steps, so
    not one cut mid-cascade or one that moves while a match is pending.
    """
    grid = state.grid
    r, c, d = move.row, move.col, move.dir
    if not (2 <= r <= grid.height - 1 and 2 <= c <= grid.width - 1):
        raise IllegalMove(f"move source ({r}, {c}) is not an interior cell")
    row = list(grid.cells[r - 1])
    if row[c - 1] <= EMPTY:
        raise IllegalMove(f"no block to move at ({r}, {c})")
    if row[c + d - 1] != EMPTY:
        raise IllegalMove(f"target cell ({r}, {c + d}) is not empty")
    row[c - 1], row[c + d - 1] = EMPTY, row[c - 1]
    moved = Grid._trusted((*grid.cells[: r - 1], tuple(row), *grid.cells[r:]))
    new_state, cascade, matches = _resolve(moved, (c - 1, c + d - 1))
    return new_state, Trace(grid, (MoveEvent(move, moved), *cascade)), matches


def replay(grid: Grid, moves) -> tuple[Trace, int | None, str | None]:
    """Resolve `grid`, which adds no event when it is quiescent, then play
    `moves` through `apply_move`: the one loop over `apply_move`.

    Returns the trace up to the first illegal move, and that move's 1-based
    index and the reason (both None when every move is legal).
    """
    state, cascade, _ = resolve(grid)
    events = list(cascade)
    for index, move in enumerate(moves, start=1):
        try:
            state, trace, _ = apply_move(state, move)
        except IllegalMove as exc:
            return Trace(grid, tuple(events)), index, str(exc)
        events.extend(trace.events)
    return Trace(grid, tuple(events)), None, None


def is_goal(grid: Grid) -> bool:
    """True iff no cell holds a pattern block."""
    return all(v <= EMPTY for row in grid.cells for v in row)


def pattern_counts(grid: Grid) -> dict[int, int]:
    """Multiset census of pattern blocks, pattern id -> count."""
    counts: Counter[int] = Counter()
    for row in grid.cells:
        for v in row:
            if v > EMPTY:
                counts[v] += 1
    return dict(counts)


def is_dead_end(grid: Grid) -> bool:
    """True iff some pattern has exactly one block left.

    Sound: blocks are never created and a match needs two blocks of the same
    pattern, so a singleton pattern can never be cleared.
    """
    return any(n == 1 for n in pattern_counts(grid).values())


def reach_partners(grid: Grid) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Per non-wall interior cell x, the cells a partner for a block at x
    must be at; read off the walls alone, once per level.

    Blocks slide left and right and fall, but never rise, so reach(x), every
    cell a block at x can ever occupy, is the closure of x under steps left,
    right and down through non-wall cells.  A block goes only in a match,
    orthogonally next to a block of its own pattern.  So partners(x) holds
    the non-wall cells y != x whose reach holds a cell orthogonally next to
    a cell of reach(x), row-major: a state with a block at x whose pattern
    is at none of partners(x) can never be cleared.

    All cells of one row run (a wall-delimited stretch of a row) share one
    reach and one partner set, so runs are worked bottom-up as masks in a
    `Board` slot layout.
    """
    w = grid.width

    def cells_of(mask: int):
        while mask:
            low = mask & -mask
            mask ^= low
            r, c = divmod(low.bit_length() - 1, w)
            yield r + 1, c + 1

    runs: list[tuple[int, int]] = []  # (cells, reach) per run, bottom row first
    for r in range(grid.height - 2, 0, -1):
        run = 0
        for c in range(1, w):  # the perimeter wall at w - 1 closes the last run
            if grid.cells[r][c] != WALL:
                run |= 1 << (r * w + c)
            elif run:
                reach = run
                for cells, below in runs:
                    if cells & run << w:
                        reach |= below
                runs.append((run, reach))
                run = 0
    open_cells = sum(cells for cells, _ in runs)  # runs are disjoint: sum is or
    out: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for cells, reach in runs:
        touch = (reach << 1 | reach >> 1 | reach << w | reach >> w) & open_cells
        partners = sum(other for other, theirs in runs if theirs & touch)
        for r, c in cells_of(cells):
            out[(r, c)] = tuple(cells_of(partners & ~(1 << ((r - 1) * w + c - 1))))
    return dict(sorted(out.items()))


def state_key(grid: Grid) -> bytes:
    """Deterministic 128-bit digest of a grid, stable across processes.

    Tests and the benchmark corpus generator key grids on it; search keys
    states on `Board` ints instead, so `hashlib` loads on first use.
    """
    import hashlib
    h = hashlib.blake2b(digest_size=16)
    h.update(bytes((grid.height, grid.width)))
    for row in grid.cells:
        h.update(bytes(v + 1 for v in row))  # shift WALL=-1 into byte range
    return h.digest()


class Board:
    """Trusted bitmask rules for one level, for search.

    A state is one int: pattern k of `patterns` has the H * W bits from
    k * H * W up, row-major with the perimeter, so cell (r, c) is bit
    (r - 1) * W + (c - 1) of that slot.  No slot holds a perimeter cell, so
    a shift by one row or column carries no block across a row edge or into
    another slot.  The methods validate nothing: pass only states from
    `encode` or `successors` of the same board.  `decode` of each successor
    is `apply_move`'s state.
    """

    def __init__(self, grid: Grid):
        self.width = w = grid.width
        self.height = h = grid.height
        self.walls = 0
        patterns = set()
        for r in range(h):
            for c, v in enumerate(grid.cells[r]):
                if v == WALL:
                    self.walls |= 1 << (r * w + c)
                elif v > EMPTY:
                    patterns.add(v)
        self.patterns = tuple(sorted(patterns))
        n, self._slot, self._full = len(self.patterns), h * w, (1 << h * w) - 1
        self._rep = sum(1 << k * h * w for k in range(n))  # mask * _rep: in all slots
        self._folds = tuple(h * w << j for j in range((n - 1).bit_length()))  # all into slot 0
        self._gaps: dict[int, float] = {}  # one pattern's column_gap by its mask
        # (move, target bit) left then right per open cell: search makes no Move.
        self._moves = {}
        for r, c in grid.interior():
            if grid.at(r, c) != WALL:
                i = (r - 1) * w + (c - 1)
                self._moves[i] = ((Move(r, c, LEFT), 1 << i - 1), (Move(r, c, RIGHT), 1 << i + 1))

    def encode(self, grid: Grid) -> int:
        """The state of a grid with this board's walls and patterns."""
        offset = {p: k * self._slot for k, p in enumerate(self.patterns)}
        w, state = self.width, 0
        for r, row in enumerate(grid.cells):
            for c, v in enumerate(row):
                if v > EMPTY:
                    state |= 1 << (offset[v] + r * w + c)
        return state

    def decode(self, state: int) -> Grid:
        """The grid a state stands for."""
        w = self.width
        cells = [
            [WALL if self.walls >> (r * w + c) & 1 else EMPTY for c in range(w)]
            for r in range(self.height)
        ]
        while state:
            low = state & -state
            k, i = divmod(low.bit_length() - 1, self._slot)
            cells[i // w][i % w] = self.patterns[k]
            state ^= low
        return Grid._trusted(tuple(tuple(row) for row in cells))

    def resolve(self, state: int) -> int:
        """Cascade fixpoint: gravity to rest, remove matches, repeat.

        Gravity drops, one row per step, every block whose cell below holds
        neither a wall nor a block; steps repeat until nothing moves.  A
        block matches when its right or lower neighbour holds the same
        pattern; both cells of each such pair go.  A step acts on all patterns.
        """
        w, walls, rep = self.width, self.walls, self._rep
        while True:
            blocks = state
            for span in self._folds:
                blocks |= blocks >> span
            blocks &= self._full
            fall = blocks & ~((walls | blocks) >> w)
            while fall:
                f = state & fall * rep
                state ^= f | f << w
                blocks ^= fall | fall << w
                fall = blocks & ~((walls | blocks) >> w)
            hz = state & state >> 1
            vt = state & state >> w
            if not (hz or vt):
                return state
            state ^= hz | hz << 1 | vt | vt << w

    def successors(self, state: int) -> Iterator[tuple[Move, int]]:
        """(move, resolved child) for each legal move, in `legal_moves` order.

        `state` must be quiescent (no block above an empty cell, no match
        pending), as all from `encode` of a `QuiescentState` grid or from
        `successors` are.  So the mover drops to the first wall or block
        below its target, the stack on it drops one row, nothing else falls,
        and only a moved block can match: the child skips `resolve` unless
        one lands beside its own pattern.
        """
        w, hw, rep = self.width, self._slot, self._rep
        blocks = state
        for span in self._folds:
            blocks |= blocks >> span
        blocks &= self._full
        stop = self.walls | blocks
        free = self._full & ~stop
        movers = blocks & (free << 1 | free >> 1)
        while movers:
            low = movers & -movers
            movers ^= low
            bit, off = low, 0
            while not state & bit:
                bit <<= hw
                off += hw
            base, stack, above = state ^ bit, 0, low >> w
            while blocks & above:
                stack |= above
                above >>= w
            if stack:
                d = base & stack * rep
                base ^= d ^ d << w
            for move, to in self._moves[low.bit_length() - 1]:
                if not free & to:
                    continue
                while not stop & to << w:
                    to <<= w
                child = base | to << off
                if stack:
                    hit = child & (child >> 1 | child >> w)
                else:
                    hit = base >> off & (to << 1 | to >> 1 | to << w | to >> w)
                yield move, self.resolve(child) if hit else child

    def is_dead_end(self, state: int) -> bool:
        """True iff some pattern has one block (`is_dead_end` on a state)."""
        while state:
            m = state & self._full
            if m and not m & m - 1:
                return True
            state >>= self._slot
        return False

    def column_gap(self, state: int) -> float:
        """Admissible lower bound on the moves left; inf for dead ends.

        Every block must go, and a block matches only beside a block of its
        own pattern, in the same or a neighbouring column.  A block whose
        nearest other block of its pattern is d columns away therefore
        waits for at least d - 1 moves of that pattern: gravity and
        matching never change a column, a move shifts one block by one
        column, and a removal never brings a partner closer.  Each pattern
        costs the largest such d - 1 over its blocks (0 when every block
        shares its column with another), and each move moves one pattern,
        so the sum over patterns is a lower bound.  Costs are kept by mask.
        """
        total = 0
        while state:
            m = state & self._full
            state >>= self._slot
            gap = self._gaps.get(m)
            if gap is None:
                gap = self._gaps[m] = self._gap(m)
            total += gap
        return total

    def _gap(self, m: int) -> float:
        """The `column_gap` cost of one pattern's mask `m`."""
        if not m & m - 1:
            return math.inf if m else 0
        # Fold the rows onto the first: bit c-1 of `occ` is set iff column c
        # holds a block, and of `twice` iff it holds two or more.
        occ, twice, span = m, 0, self.width
        while span < self._slot:
            up = occ >> span
            twice |= twice >> span | occ & up
            occ |= up
            span *= 2
        occ &= (1 << self.width) - 1
        # Widen each occupied column's reach until every lone block has one.
        lonely, d = occ & ~twice, 0
        while lonely:
            d += 1
            lonely &= ~(occ >> d | occ << d)
        return max(d - 1, 0)


def verify_trace(trace: Trace) -> bool:
    """True iff the trace is the rules' own playback of its moves; never raises.

    One `replay` of the trace's moves from its initial grid, and one
    comparison: the events so made must equal the trace's.  So a trace cut
    mid-cascade, or one that moves while a fall or match is pending, is
    rejected, as is an illegal move or a wrong `after`.
    """
    moves = [e.move for e in trace.events if isinstance(e, MoveEvent)]
    played, bad, _ = replay(trace.initial, moves)
    return bad is None and played.events == tuple(trace.events)
