"""Bounded propositional models of the puzzle, and model decoding.

Two encodings over a step-indexed grid of one-hot cell-value variables:

- fixed: satisfiable iff the level can be cleared in EXACTLY `n_steps`
  steps, where each step is either one player move (gravity applied
  instantaneously, both to the moved block and to the stack it may have been
  supporting) or one simultaneous removal of every matching block (again
  with instantaneous gravity, expressed through an order-preserving
  row-mapping function per column rather than explicit arithmetic).

- varmoves: counts only player moves.  The step axis becomes `ministeps`
  (moves + matches + a frozen dummy tail); the ministep horizon is
  max_moves plus the largest possible number of match steps, which is half
  the number of blocks since every match removes at least two.  Satisfiable
  iff a plan with at most `max_moves` moves exists: non-move registers count
  the ministeps that are not moves, a fixed number of them per step.

Each mode has one formula, grown a step at a time by `_Encoder.add_step`:
each step's variables are numbered after the previous steps', and the goal
at each horizon sits behind an activation literal.  `solve_iterative`
hands each step to one solver session and asks one horizon after another;
its steps also get implied clauses from `engine.reach_partners` (each block
has a block of its pattern at one of its partner cells).
`encode_fixed` and `encode_varmoves`, which `puzznic encode` writes, grow
the same formula to one horizon, without the partner clauses, and add what
the route assumes at that horizon as unit clauses.

Every decoded model is validated against one replay of its moves through
`engine.replay`; a mismatch raises ModelInconsistent since it can only mean
an encoder bug.  The validated trace is the one the solve route returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from puzznic import engine
from puzznic.cnf import ClauseBuilder, CnfInstance, VarMap
from puzznic.engine import EMPTY, LEFT, RIGHT, WALL, Grid, Move, Trace
from puzznic.planner import (
    BudgetExhausted,
    Plan,
    ProvedUnsolvable,
    SearchResult,
    SearchStats,
    Solved,
)
from puzznic.satsolver import SolverBudgetExceeded

MAX_HORIZON = 64
# tags of the action variables, given a head start in the solver's order
_HINT_TAGS = frozenset(("movesel", "matching", "dummy", "moving"))
MOVE_STEP = "move"
MATCH_STEP = "match"
DUMMY_STEP = "dummy"


class EncoderError(Exception):
    pass


class HorizonTooLarge(EncoderError):
    pass


class ModelInconsistent(EncoderError):
    """A model did not replay through the engine: an encoder bug, never
    silently accepted."""


@dataclass(frozen=True)
class DecodedPlan:
    plan: Plan
    step_kinds: tuple[str, ...]
    total_steps: int
    trace: Trace


def level_moves(level: Grid) -> list[tuple[int, int, int]]:
    """(r, c, d) of every sideways step from a non-wall cell to a non-wall
    cell, row-major, left first: the move selectors of each step, as
    `_Encoder` numbers them and `decode_model` reads them."""
    at = level.at
    return [
        (r, c, d)
        for r, c in level.interior()
        if at(r, c) != WALL
        for d in (LEFT, RIGHT)
        if at(r, c + d) != WALL
    ]


class _Encoder:
    """One level's formula: step 0 on creation, then one step per
    `add_step`.  `partners` maps a cell to the partner cells of
    `engine.reach_partners`; every step gets their implied clauses.

    The facts about the level are worked out once, here, and every
    constraint group reads them:
    - `nonwall`: the non-wall cells, row-major; `col_rows`, their rows per
      column, columns left to right and rows top down;
    - `seg[(r, c)]`: the rows of the cell's wall-delimited column segment.
      A block never falls out of its segment, so the segment bounds both
      where a moved block lands and where a match step maps a block;
    - `moves`: `level_moves(level)`;
    - `edges`: the orthogonal non-wall neighbour pairs, for the match flags;
    - `values`: `EMPTY`, then the patterns."""

    def __init__(self, level: Grid, mode: str, partners: dict):
        self.level = level
        self.S = 0
        self.mode = mode
        self.partners = partners
        # a varmoves horizon of n ministeps caps the moves at n - max_matches:
        # each ministep is a move, a match or a dummy
        self.max_matches = max_match_steps(level) if mode == "varmoves" else 0
        self.patterns = sorted(engine.pattern_counts(level))
        self.values = [EMPTY, *self.patterns]
        self.nonwall = [
            (r, c) for r, c in level.interior() if level.at(r, c) != WALL
        ]
        self.col_rows: dict[int, list[int]] = {}
        self.seg: dict[tuple[int, int], range] = {}
        for r, c in self.nonwall:
            self.col_rows.setdefault(c, []).append(r)
            if (r, c) not in self.seg:  # the top row of its segment
                stop = r + 1
                while level.at(stop, c) != WALL:
                    stop += 1
                seg = range(r, stop)
                self.seg.update({(q, c): seg for q in seg})
        self.col_rows = dict(sorted(self.col_rows.items()))
        self.moves = level_moves(level)
        self.edges = [
            ((r, c), nb)
            for r, c in self.nonwall
            for nb in ((r + 1, c), (r, c + 1))
            if nb in self.seg
        ]
        self.vm = VarMap(())
        # (s, r, c, v) -> var of grid[s, r, c] == v; walls hold no variables
        self.cells: dict[tuple[int, int, int, int], int] = {}
        self.hints: list[int] = []  # branch_hints: action variables, in order
        self.non_moves: list[int] = []  # `add_step`'s registers at step S
        self._number(0)
        self.b = ClauseBuilder()
        # step 0 is the level itself, with no transition into it
        self.emit_one_hot_cells(0)
        self.emit_initial()
        self.emit_no_floating(0)
        self.emit_partners(0)

    # -- variable layout ----------------------------------------------------

    def _meanings(self, s: int):
        out = [("cell", s, r, c, v) for r, c in self.nonwall for v in self.values]
        if s:
            out.append(("matching", s))
            out += [("movesel", s, *m) for m in self.moves]
            for r, c in self.nonwall:
                out.append(("matchflag", s - 1, r, c))
                # q = 0: not mapped
                out += [("mapsto", s - 1, r, c, q) for q in (0, *self.seg[r, c])]
            if self.mode == "varmoves":
                out.append(("moving", s))
                out.append(("dummy", s))
        return out

    def _number(self, s: int) -> None:
        first = len(self.vm) + 1
        for var, meaning in enumerate(self.vm.extend(self._meanings(s)), first):
            if meaning[0] == "cell":
                self.cells[meaning[1:]] = var
            elif meaning[0] in _HINT_TAGS:
                self.hints.append(var)

    # -- literal helpers ----------------------------------------------------

    def msels(self, s: int) -> list[tuple[tuple[int, int, int], int]]:
        """((r, c, d), selector) of every move at step s, row-major, left first."""
        var = self.vm.var
        return [(m, var("movesel", s, *m)) for m in self.moves]

    def _keeps(self, s: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Per non-wall cell, its value pairs (-old, new) over the transition
        s-1 -> s: the clauses (-old or new) keep the cell as it was."""
        cells, values = self.cells, self.values
        return {
            (r, c): [(-cells[s - 1, r, c, v], cells[s, r, c, v]) for v in values]
            for r, c in self.nonwall
        }

    # -- constraint groups ----------------------------------------------------
    #
    # Each group takes one step s: the cells at s and, for s >= 1, the
    # transition s-1 -> s (its action, and the match flags and row mappings
    # of s-1).  Groups read cells only where they are not walls (walls hold
    # no variables) and extend the clause list with their tuples directly.

    def add_step(self) -> tuple[int, ...]:
        """Grow the formula by step S+1, in the DIMACS order, and return
        what a call at horizon S+1 assumes; () while S+1 <= max_matches,
        which ends no horizon to try.

        The step gets its constraint groups, the implied partner clauses
        and, in varmoves mode, the frozen dummy tail and `max_matches`
        non-move registers.  The goal at S+1 holds wherever the returned
        fresh goal literal is true; in varmoves mode the register "at least
        `max_matches` non-moves in 1..S+1" is assumed with it, which caps
        the plan at S+1 - max_matches moves."""
        n = self.S = self.S + 1
        self._number(n)
        goal = self.vm.aux() if n > self.max_matches else None
        self.emit_one_hot_cells(n)
        if goal is not None:
            self.emit_goal(n, (-goal,))
        self.emit_no_floating(n)
        self.emit_match_flags(n)
        self.emit_mode_selection(n)
        self.emit_mapsto(n)
        self.emit_match_transition(n)
        keep = self._keeps(n)
        self.emit_moves(n, keep)
        self.emit_partners(n)
        if self.mode == "varmoves":
            if n > 1:
                self.b.clauses.append((-self.vm.var("dummy", n - 1), self.vm.var("dummy", n)))
            self._emit_frozen(n, keep)
            self._emit_non_moves(n, self.max_matches)
        if goal is None:
            return ()
        return (goal, self.non_moves[-1]) if self.max_matches else (goal,)

    def emit_one_hot_cells(self, s: int):
        cells, out = self.cells, self.b.clauses
        for r, c in self.nonwall:
            lits = tuple([cells[s, r, c, v] for v in self.values])
            out.append(lits)
            self.b.at_most_one(lits)

    def emit_initial(self):
        cells, at = self.cells, self.level.at
        self.b.clauses.extend([(cells[0, r, c, at(r, c)],) for r, c in self.nonwall])

    def emit_goal(self, s: int, prefix: tuple[int, ...]):
        cells = self.cells
        self.b.clauses.extend(
            [(*prefix, -cells[s, r, c, p]) for r, c in self.nonwall for p in self.patterns]
        )

    def emit_no_floating(self, s: int):
        # a block never rests on an empty cell, at any step
        cells, patterns, out = self.cells, self.patterns, self.b.clauses
        for r, c in self.nonwall:
            if r + 1 in self.seg[r, c]:
                not_below = -cells[s, r + 1, c, EMPTY]
                out.extend([(-cells[s, r, c, p], not_below) for p in patterns])

    def emit_match_flags(self, s: int):
        # matchflag[s-1,r,c] <-> cell holds a pattern shared with a neighbour
        cells, out, aux = self.cells, self.b.clauses, self.vm.aux
        incident: dict[tuple[int, int], list[int]] = {rc: [] for rc in self.nonwall}
        for a, b in self.edges:
            for p in self.patterns:
                t = aux()
                la = cells[(s - 1, *a, p)]
                lb = cells[(s - 1, *b, p)]
                out += ((-t, la), (-t, lb), (-la, -lb, t))
                incident[a].append(t)
                incident[b].append(t)
        for r, c in self.nonwall:
            mf = self.vm.var("matchflag", s - 1, r, c)
            pairs = incident[(r, c)]
            out.extend([(-t, mf) for t in pairs])
            out.append((-mf, *pairs))

    def emit_mode_selection(self, s: int):
        # matching[s] <-> some matchflag at s-1; pinned action vars otherwise
        var, out = self.vm.var, self.b.clauses
        m = var("matching", s)
        flags = [var("matchflag", s - 1, r, c) for r, c in self.nonwall]
        out.extend([(-f, m) for f in flags])
        out.append((-m, *flags))
        sel = [lit for _, lit in self.msels(s)]
        out.extend([(-m, -lit) for lit in sel])  # matching pins moves off
        if self.mode == "fixed":
            out.append((m, *sel))  # each step is a move or a match
            self.b.at_most_one(sel)
        else:
            d = var("dummy", s)
            mv = var("moving", s)
            out.append((m, d, *sel))
            self.b.at_most_one([d] + sel)
            out.append((-m, -d))
            out.extend([(-lit, mv) for lit in sel])
            out.append((-mv, *sel))

    def emit_mapsto(self, s: int):
        var, out = self.vm.var, self.b.clauses
        matching = var("matching", s)
        # per cell at s-1: its match flag, its empty literal and the negated
        # mappings to each row of its segment, for the order pairs below
        order: dict[tuple[int, int], tuple] = {}
        for r, c in self.nonwall:
            lits = [var("mapsto", s - 1, r, c, q) for q in (0, *self.seg[r, c])]
            zero = lits[0]  # q = 0: not mapped
            mf = var("matchflag", s - 1, r, c)
            empty = self.cells[s - 1, r, c, EMPTY]
            out.append(tuple(lits))
            self.b.at_most_one(lits)
            out += (
                (-empty, zero),  # empty cells are not mapped
                (-mf, zero),  # matched blocks are not mapped
                (matching, zero),  # outside matching mode nothing is mapped
                (-matching, mf, empty, -zero),  # survivors are mapped somewhere
            )
            order[(r, c)] = (mf, empty, [-lit for lit in lits[1:]])
        # order preservation within each column segment
        for r, c in self.nonwall:
            for rb in range(r + 1, self.seg[r, c].stop):
                self._emit_order_pair(-matching, order[(r, c)], order[(rb, c)])

    def _emit_order_pair(self, not_matching: int, upper: tuple, lower: tuple):
        # two surviving blocks of one segment, the upper one at row r above
        # the lower one at rb, never swap or share a destination: for rows
        # q1 >= q2 of the segment, not (r -> q1 and rb -> q2)
        mf_r, empty_r, unmapped_r = upper
        mf_rb, empty_rb, unmapped_rb = lower
        self.b.clauses.extend(
            [
                (not_matching, mf_r, empty_r, mf_rb, empty_rb, no_q1, no_q2)
                for i, no_q1 in enumerate(unmapped_r)
                for no_q2 in unmapped_rb[: i + 1]
            ]
        )

    def emit_match_transition(self, s: int):
        var, cells, out = self.vm.var, self.cells, self.b.clauses
        not_matching = -var("matching", s)
        # mapped blocks carry their value to the destination row
        by_target: dict[tuple[int, int], list[int]] = {}
        for r, c in self.nonwall:
            was = [-cells[s - 1, r, c, p] for p in self.patterns]
            for q in self.seg[r, c]:
                mt = var("mapsto", s - 1, r, c, q)
                by_target.setdefault((q, c), []).append(mt)
                out.extend(
                    [
                        (not_matching, -mt, not_was, cells[s, q, c, p])
                        for p, not_was in zip(self.patterns, was)
                    ]
                )
        # anything not in the image of the mapping becomes empty
        for r, c in self.nonwall:
            sources = by_target.get((r, c), ())
            out.append((not_matching, *sources, cells[s, r, c, EMPTY]))

    def emit_moves(self, s: int, keep):
        cells, patterns, out = self.cells, self.patterns, self.b.clauses
        msels = self.msels(s)
        dest_vars = {qc: self.vm.aux() for qc in self.nonwall}
        self.b.at_most_one(list(dest_vars.values()))
        not_matching = -self.vm.var("matching", s)
        not_dummy = -self.vm.var("dummy", s) if self.mode == "varmoves" else None
        for (q, c), dv in dest_vars.items():
            not_dv = -dv
            out.append((not_matching, not_dv))  # pinned off in matching mode
            if not_dummy is not None:
                out.append((not_dummy, not_dv))
            # something solid beneath the landing row
            if q + 1 in self.seg[q, c]:
                out.append((not_dv, -cells[s - 1, q + 1, c, EMPTY]))
            # frame: the rest of the destination column is untouched
            out.extend(
                [
                    (not_dv, not_old, new)
                    for rho in self.col_rows[c]
                    if rho != q
                    for not_old, new in keep[(rho, c)]
                ]
            )
        for (r, c, d), sel in msels:
            c2 = c + d
            not_sel = -sel
            # a patterned source block and an empty target cell
            out.append((not_sel, -cells[s - 1, r, c, EMPTY]))
            out.append((not_sel, cells[s - 1, r, c2, EMPTY]))
            # the block lands somewhere below the target, inside its segment
            landing = [(q, dest_vars[(q, c2)]) for q in range(r, self.seg[r, c2].stop)]
            out.append((not_sel, *[dv for _, dv in landing]))
            was = [-cells[s - 1, r, c, p] for p in patterns]
            for q, dv in landing:
                not_dv = -dv
                # clear fall path from the target down to the landing row
                out.extend(
                    [
                        (not_sel, not_dv, cells[s - 1, mid, c2, EMPTY])
                        for mid in range(r + 1, q + 1)
                    ]
                )
                # the landing cell receives the moved block's pattern
                out.extend(
                    [
                        (not_sel, not_dv, not_was, cells[s, q, c2, p])
                        for p, not_was in zip(patterns, was)
                    ]
                )
        self._emit_source_column(s, msels, keep)
        self._emit_column_frames(s, msels, dest_vars, keep)

    def _emit_source_column(self, s: int, msels, keep):
        # gravity in the vacated column: the contiguous stack resting on the
        # moved block shifts down one row; everything above a gap stays put.
        # Both moves out of a cell share these clauses but for the selector.
        shared: dict[tuple[int, int], list[tuple]] = {}
        out = self.b.clauses
        for (r, c, d), sel in msels:
            if (r, c) not in shared:
                shared[(r, c)] = self._source_column_bodies(s, r, c, keep)
            guard = (-sel,)
            out.extend([guard + body for body in shared[(r, c)]])

    def _source_column_bodies(self, s: int, r: int, c: int, keep) -> list[tuple]:
        cells = self.cells
        top = self.seg[r, c].start  # the segment's top row
        empty_before = {b: cells[s - 1, b, c, EMPTY] for b in range(top, r)}
        bodies: list[tuple] = []
        for rho in range(top, r + 1):
            gap = tuple([empty_before[b] for b in range(rho, r)])
            if rho > top:
                bodies.extend(
                    [
                        (*gap, -cells[s - 1, rho - 1, c, p], cells[s, rho, c, p])
                        for p in self.patterns
                    ]
                )
                bodies.append((*gap, -empty_before[rho - 1], cells[s, rho, c, EMPTY]))
            else:
                # nothing can fall from a wall: the row empties
                bodies.append((*gap, cells[s, rho, c, EMPTY]))
        # frame: rows above an existing gap (or above the segment), and
        # everything below the vacated row, keep their values
        for q in self.col_rows[c]:
            if q < top or q > r:
                bodies.extend(keep[(q, c)])
            elif q < r:
                for b in range(q, r):
                    # the gap at q itself witnesses the EMPTY pair once
                    not_witness = -empty_before[b]
                    bodies.extend(
                        [
                            pair if pair[0] == not_witness else (not_witness, *pair)
                            for pair in keep[(q, c)]
                        ]
                    )
        return bodies

    def _emit_column_frames(self, s: int, msels, dest_vars: dict[tuple[int, int], int], keep):
        # frame: columns that are neither source nor destination are unchanged
        matching = self.vm.var("matching", s)
        out = self.b.clauses
        src_col: dict[int, int] = {}
        dst_col: dict[int, int] = {}
        for c in self.col_rows:
            sv = src_col[c] = self.vm.aux()
            dv = dst_col[c] = self.vm.aux()
            sels = [lit for (_, c0, _), lit in msels if c0 == c]
            out.extend([(-lit, sv) for lit in sels])
            out.append((-sv, *sels))
            dests = [lit for (_, c0), lit in dest_vars.items() if c0 == c]
            out.extend([(-lit, dv) for lit in dests])
            out.append((-dv, *dests))
        for (r, c), pairs in keep.items():
            out.extend([(matching, src_col[c], dst_col[c], *pair) for pair in pairs])

    def emit_partners(self, s: int) -> None:
        # implied: a block at x goes only beside a block of its pattern that
        # starts at one of partners(x), so every state on the way to the goal
        # has one there (`engine.reach_partners`)
        cells, out = self.cells, self.b.clauses
        for (r, c), ys in self.partners.items():
            for p in self.patterns:
                out.append((-cells[s, r, c, p], *[cells[s, y, x, p] for y, x in ys]))

    def _emit_frozen(self, s: int, keep) -> None:
        # a dummy step keeps every cell
        not_d, out = -self.vm.var("dummy", s), self.b.clauses
        for pairs in keep.values():
            out.extend([(not_d, *pair) for pair in pairs])

    def _emit_non_moves(self, s: int, k: int) -> None:
        # registers q[s][j], "at least j non-move ministeps in 1..s", for
        # j = 1..k; only q -> count is emitted, from q[s-1] (all false at
        # s = 1): q[s][j] needs q[s-1][j], or a non-move at s and q[s-1][j-1]
        out, before = self.b.clauses, self.non_moves
        not_moving = -self.vm.var("moving", s)
        now = [self.vm.aux() for _ in range(k)]
        for j, q in enumerate(now):
            if not before:
                out.append((-q, not_moving) if j == 0 else (-q,))
                continue
            out.append((-q, before[j], not_moving))
            if j:
                out.append((-q, before[j], before[j - 1]))
        self.non_moves = now

    def finish(self) -> CnfInstance:
        """The formula so far, up to the last step added."""
        return CnfInstance(
            num_vars=len(self.vm),
            clauses=tuple(self.b.clauses),
            varmap=self.vm,
            meta={"mode": self.mode, "horizon": self.S, "level": self.level},
            branch_hints=tuple(self.hints),
        )


def _encode(level: Grid, mode: str, horizon: int) -> CnfInstance:
    """The solving route's formula grown to `horizon`, without partner
    clauses, with what the route assumes at that horizon as unit clauses.
    The goal literals of lower horizons stay free."""
    enc = _Encoder(level, mode, {})
    assumed = ()
    for _ in range(horizon):
        assumed = enc.add_step()
    if not assumed:  # varmoves at 0 moves: no horizon of the route ends here
        enc.emit_goal(horizon, ())
        assumed = enc.non_moves[-1:]
    enc.b.clauses.extend([(lit,) for lit in assumed])
    return enc.finish()


def encode_fixed(level: Grid, n_steps: int) -> CnfInstance:
    """CNF satisfiable iff the level clears in exactly `n_steps` steps."""
    engine.QuiescentState(level)  # raises EngineError unless quiescent
    if n_steps < 1 or n_steps > MAX_HORIZON:
        raise HorizonTooLarge(f"n_steps={n_steps} outside 1..{MAX_HORIZON}")
    return _encode(level, "fixed", n_steps)


def max_match_steps(level: Grid) -> int:
    """Every match removes at least two blocks, so match steps are bounded
    by half the number of patterned blocks."""
    return sum(engine.pattern_counts(level).values()) // 2


def encode_varmoves(level: Grid, max_moves: int) -> CnfInstance:
    """CNF satisfiable iff a plan with at most `max_moves` moves exists."""
    engine.QuiescentState(level)  # raises EngineError unless quiescent
    if max_moves < 0:
        raise HorizonTooLarge(f"max_moves must be >= 0, got {max_moves}")
    horizon = max_moves + max_match_steps(level)
    if horizon > MAX_HORIZON:
        raise HorizonTooLarge(f"ministep horizon {horizon} exceeds {MAX_HORIZON}")
    return _encode(level, "varmoves", horizon)


def _grid_from_model(instance: CnfInstance, assignment, s: int, values) -> Grid:
    level = instance.meta["level"]
    vm = instance.varmap
    rows = [list(row) for row in level.cells]
    for r, c in level.interior():
        if level.at(r, c) == WALL:
            continue
        trues = [v for v in values if assignment[vm.var("cell", s, r, c, v)]]
        if len(trues) != 1:
            raise ModelInconsistent(
                f"cell ({r},{c}) at step {s} has {len(trues)} values set"
            )
        rows[r - 1][c - 1] = trues[0]
    return Grid(tuple(tuple(row) for row in rows))


def decode_model(instance: CnfInstance, assignment) -> DecodedPlan:
    """Read the step grids, kinds and moves of a satisfying assignment and
    check them against one replay of the moves through `engine.replay`.
    The move selectors read are the encoder's own, `level_moves(level)`.

    Each move or match event of the replayed trace, with the grid after its
    fall, must equal the model's next non-dummy step; a dummy step must keep
    the grid and must not come while a match is pending.  Any difference
    raises ModelInconsistent.  The plan is returned with its trace.
    """
    vm = instance.varmap
    level: Grid = instance.meta["level"]
    horizon: int = instance.meta["horizon"]
    mode: str = instance.meta["mode"]
    values = [EMPTY, *sorted(engine.pattern_counts(level))]
    selectors = level_moves(level)

    if _grid_from_model(instance, assignment, 0, values) != level:
        raise ModelInconsistent("model initial state differs from the level")

    steps: list[tuple[int, str, Grid]] = []
    moves: list[Move] = []
    move_steps: list[int] = []
    for s in range(1, horizon + 1):
        grid = _grid_from_model(instance, assignment, s, values)
        if assignment[vm.var("matching", s)]:
            kind = MATCH_STEP
        else:
            selected = [m for m in selectors if assignment[vm.var("movesel", s, *m)]]
            if len(selected) > 1:
                raise ModelInconsistent(f"step {s} selects {len(selected)} moves")
            if selected:
                kind = MOVE_STEP
                moves.append(Move(*selected[0]))
                move_steps.append(s)
            elif mode == "varmoves" and assignment[vm.var("dummy", s)]:
                kind = DUMMY_STEP
            else:
                raise ModelInconsistent(f"step {s} selects no action")
        steps.append((s, kind, grid))

    trace, bad, why = engine.replay(level, moves)
    if bad is not None:
        raise ModelInconsistent(f"illegal move at step {move_steps[bad - 1]}: {why}")
    # the trace as model steps: each move or match with the grid after its fall
    replayed: list[list] = []
    for event in trace.events:
        if isinstance(event, engine.FallEvent):
            replayed[-1][1] = event.after
        else:
            kind = MOVE_STEP if isinstance(event, engine.MoveEvent) else MATCH_STEP
            replayed.append([kind, event.after])

    k = 0  # trace steps matched so far
    current = level
    for s, kind, grid in steps:
        if kind == DUMMY_STEP:
            if grid != current:
                raise ModelInconsistent(f"dummy step {s} changes the grid")
            if k < len(replayed) and replayed[k][0] == MATCH_STEP:
                raise ModelInconsistent(f"dummy step {s} with a match pending")
            continue
        if k == len(replayed) or replayed[k][0] != kind:
            raise ModelInconsistent(f"{kind} step {s} diverges from the engine cascade")
        if replayed[k][1] != grid:
            raise ModelInconsistent(f"step {s} grid diverges from engine replay")
        current = grid
        k += 1
    if k < len(replayed) or not engine.is_goal(trace.final):
        raise ModelInconsistent("model does not reach the goal")

    return DecodedPlan(
        plan=Plan(tuple(moves)),
        step_kinds=tuple(kind for _, kind, _ in steps),
        total_steps=k,
        trace=trace,
    )


def solve_iterative(
    level: Grid,
    mode: str = "varmoves",
    bound: int = 100,
    backend=None,
    time_limit: float | None = None,
) -> SearchResult:
    """Drive one backend session over increasing horizons and decode the
    first model.  Each ministep is encoded and handed to `backend.add` once,
    and the first satisfiable horizon is the optimum.

    fixed mode tries n_steps = 1, 2, 3, ... up to `bound`: a minimum-total-
    steps plan.  varmoves mode tries max_moves m = 1, 2, 3, ... up to
    `bound` over the horizon m + K, K = `max_match_steps`: a minimum-move
    plan.  Each ministep is one of move, match or dummy, so "at most m
    moves" is "at least K non-moves"; registers q[s][j], "at least j
    non-moves in steps 1..s", hold that count for j = 1..K.  The call at
    horizon n assumes a fresh goal literal g_n, under which the goal holds
    at n, and in varmoves mode q[n][K] too; once that call is unsatisfiable,
    the clause of the negated assumptions leads the next step.

    Every step also gets the implied partner clauses, so a stranded block
    refutes the clauses while they load.  Once `add` reports them refuted,
    the route stops with ProvedUnsolvable.  That is sound: every lower
    horizon was unsatisfiable, so any plan has at least n steps (varmoves
    pads a shorter one with dummies), and its first n steps satisfy the
    clauses at n: the transitions, the partner clauses (true on every state
    on the way to a goal), the registers (only q -> count is emitted) and
    the negated assumptions (every g false).  The deadline is checked before
    each step is handed over, and the backend checks it again while it
    searches.  The returned trace is the replay `decode_model` checked.
    At bound 0 a level that is not cleared is ProvedUnsolvable(0) in both
    modes, with no backend call.
    """
    engine.QuiescentState(level)  # raises EngineError unless quiescent
    if mode not in ("fixed", "varmoves"):
        raise ValueError(f"unknown mode {mode!r}")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if backend is None:
        from puzznic.backends import InternalBackend

        backend = InternalBackend()
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    stats = SearchStats()

    def done(result: SearchResult) -> SearchResult:
        result.stats.elapsed = time.monotonic() - start
        return result

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    if engine.is_goal(level):
        return done(SearchResult(Solved(Plan(()), engine.replay(level, ())[0]), stats))

    if not bound:  # an uncleared level needs a move, which is a step
        return done(SearchResult(ProvedUnsolvable(0), stats))
    enc = _Encoder(level, mode, engine.reach_partners(level))
    for n in range(bound + enc.max_matches + 1):
        if expired():
            return done(SearchResult(BudgetExhausted(), stats))
        assumed = enc.add_step() if n else ()
        clauses, enc.b.clauses = enc.b.clauses, []
        hints, enc.hints = enc.hints, []
        stats.generated += len(clauses)  # every clause given so far
        if not backend.add(clauses, len(enc.vm), hints):
            return done(SearchResult(ProvedUnsolvable(bound), stats))
        if not assumed:
            continue
        try:
            model = backend(assumed, deadline)
        except SolverBudgetExceeded:
            return done(SearchResult(BudgetExhausted(), stats))
        if model is None:
            enc.b.clauses.append(tuple([-lit for lit in assumed]))
            continue
        decoded = decode_model(enc.finish(), model)
        return done(SearchResult(Solved(decoded.plan, decoded.trace), stats))
    return done(SearchResult(ProvedUnsolvable(bound), stats))
