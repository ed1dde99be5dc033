"""Text formats for levels, plans, and traces.

Level format: one character per cell, `#` for walls, `.` or space for empty
(`.` is canonical on emit), and pattern symbols from `R O Y G B V P C L`
(digits 1-9 are aliases for the same symbols in that order).  Pattern ids are
assigned densely in order of first appearance, reading top-to-bottom and
left-to-right.  Short lines are padded with `#` to the longest line, so
non-rectangular shapes are expressed inside a bounding rectangle of walls.

Plan format: one move per line, `<row> <col> <L|R>` with 1-based indices.
Blank lines and lines starting with `#` are ignored on parse.

All emitters produce LF line endings, no trailing whitespace, and a trailing
newline, so emitted documents are byte-stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from puzznic import engine
from puzznic.engine import EMPTY, LEFT, RIGHT, WALL, Grid, Move, Trace

PATTERN_CHARS = "ROYGBVPCL"
MAX_DIM = engine.MAX_DIM
MIN_DIM = engine.MIN_DIM


class LevelError(Exception):
    """Base class for level/plan format diagnostics."""


class BadChar(LevelError):
    def __init__(self, row: int, col: int, char: str):
        super().__init__(f"bad character {char!r} at row {row}, column {col}")
        self.row, self.col, self.char = row, col, char


class NoPerimeter(LevelError):
    def __init__(self, row: int, col: int):
        super().__init__(f"perimeter cell at row {row}, column {col} is not a wall")
        self.row, self.col = row, col


class NotQuiescent(LevelError):
    def __init__(self, row: int, col: int, why: str):
        super().__init__(f"{why} at row {row}, column {col} (use pre-resolve to allow)")
        self.row, self.col = row, col


class TooLarge(LevelError):
    def __init__(self, height: int, width: int):
        super().__init__(
            f"grid {width}x{height} outside supported size "
            f"{MIN_DIM}..{MAX_DIM} in each dimension"
        )


class BadMoveLine(LevelError):
    def __init__(self, lineno: int, line: str):
        super().__init__(f"bad move on line {lineno}: {line!r}")
        self.lineno = lineno


@dataclass(frozen=True)
class LevelFile:
    """A parsed level: the grid plus the symbol table used to read it."""

    name: str
    grid: Grid
    symbol_table: dict[str, int] = field(default_factory=dict)


def _normalize_symbol(ch: str) -> str:
    if ch in "123456789":
        return PATTERN_CHARS[int(ch) - 1]
    return ch


def parse_level(text: str, name: str = "", pre_resolve: bool = False) -> LevelFile:
    """Parse a level document into a validated, quiescent grid.

    Rejects non-quiescent grids unless `pre_resolve` is set, in which case
    the grid is resolved to quiescence first.
    """
    if text.startswith("﻿"):
        text = text[1:]
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TooLarge(0, 0)
    width = max(len(line) for line in lines)
    height = len(lines)
    if not (MIN_DIM <= height <= MAX_DIM and MIN_DIM <= width <= MAX_DIM):
        raise TooLarge(height, width)

    symbols: dict[str, int] = {}
    rows: list[list[int]] = []
    for r, line in enumerate(lines, start=1):
        padded = line + "#" * (width - len(line))
        row: list[int] = []
        for c, ch in enumerate(padded, start=1):
            if ch == "#":
                row.append(WALL)
            elif ch in (".", " "):
                row.append(EMPTY)
            else:
                sym = _normalize_symbol(ch)
                if sym not in PATTERN_CHARS:
                    raise BadChar(r, c, ch)
                if sym not in symbols:
                    symbols[sym] = len(symbols) + 1
                row.append(symbols[sym])
        rows.append(row)

    for c in range(1, width + 1):
        if rows[0][c - 1] != WALL:
            raise NoPerimeter(1, c)
        if rows[height - 1][c - 1] != WALL:
            raise NoPerimeter(height, c)
    for r in range(1, height + 1):
        if rows[r - 1][0] != WALL:
            raise NoPerimeter(r, 1)
        if rows[r - 1][width - 1] != WALL:
            raise NoPerimeter(r, width)

    grid = Grid(tuple(tuple(row) for row in rows))
    floating = engine.find_unsettled(grid)
    pending = engine.find_matches(grid)
    if floating is not None or pending:
        if not pre_resolve:
            if floating is not None:
                raise NotQuiescent(*floating, why="floating block")
            r, c = min(pending)
            raise NotQuiescent(r, c, why="pending match")
        grid = engine.resolve(grid)[0].grid
    return LevelFile(name=name, grid=grid, symbol_table=symbols)


def load_level(path, pre_resolve: bool = False) -> LevelFile:
    """Read and parse a level file; the level name is the file stem."""
    import pathlib

    p = pathlib.Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LevelError(f"{p}: level is not UTF-8 text ({exc.reason})") from None
    return parse_level(text, name=p.stem, pre_resolve=pre_resolve)


def emit_level(grid: Grid, symbols: Mapping[str, int] | None = None) -> str:
    """Render a grid back to its text form.

    With `symbols` (the parse-time symbol table) the original pattern letters
    are kept; otherwise ids map to the canonical alphabet in order.
    """
    table = char_table(symbols)
    return "".join("".join(map(table.__getitem__, row)) + "\n" for row in grid.cells)


def char_table(symbols: Mapping[str, int] | None) -> dict[int, str]:
    """Cell value -> character for `emit_level`, `render_trace` and the
    PDDL pattern names: the symbol table's letters where it has them,
    else the canonical alphabet."""
    table = dict(enumerate(PATTERN_CHARS, start=1))
    table.update((pid, ch) for ch, pid in (symbols or {}).items())
    table.update({WALL: "#", EMPTY: "."})
    return table


_DIR_CHARS = {LEFT: "L", RIGHT: "R"}
_CHAR_DIRS = {"L": LEFT, "R": RIGHT}


def parse_plan(text: str) -> list[Move]:
    """Parse a plan document into the ordered move list."""
    moves: list[Move] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise BadMoveLine(lineno, line)
        try:
            row, col = int(parts[0]), int(parts[1])
            d = _CHAR_DIRS[parts[2].upper()]
        except (ValueError, KeyError):
            raise BadMoveLine(lineno, line) from None
        if row < 1 or col < 1:
            raise BadMoveLine(lineno, line)
        moves.append(Move(row, col, d))
    return moves


def emit_plan(moves) -> str:
    """Render moves one per line; exact inverse of parse_plan."""
    return "".join(f"{m.row} {m.col} {_DIR_CHARS[m.dir]}\n" for m in moves)


_EVENT_TAGS = {
    engine.MoveEvent: "M",
    engine.FallEvent: "F",
    engine.MatchEvent: "*",
}


def render_trace(trace: Trace, symbols: Mapping[str, int] | None = None) -> str:
    """Render a trace as one grid block per event.

    Each block is tagged with the event kind (M move, F fall, * match) and a
    1-based step index; the initial grid appears first, untagged, as step 0.
    """
    table, blocks = char_table(symbols), []
    # Most rows recur from block to block, so each distinct row is drawn once.
    line = functools.cache(lambda row: "".join(map(table.__getitem__, row)))

    def block(tag: str, index: int, grid: Grid) -> str:
        prefix = f"{tag} {index:>3} "
        return prefix + ("\n" + prefix).join(map(line, grid.cells))

    blocks.append(block(" ", 0, trace.initial))
    for i, event in enumerate(trace.events, start=1):
        blocks.append(block(_EVENT_TAGS[type(event)], i, event.after))
    return "\n\n".join(blocks) + "\n"
