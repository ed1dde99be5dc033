"""A small CDCL SAT solver used as the bundled CNF backend.

Two-watched-literal propagation, first-UIP clause learning, exponential
VSIDS decay, Luby restarts, MiniSat-style assumption handling, and a
learnt-clause database cut by length: past a cap, the longer half of the
learnt clauses that are neither binary nor the reason of an assignment is
deleted.

At the API a literal is a nonzero int (DIMACS convention) and variables
are numbered from 1: `add_clause`, `add_clauses` and assumptions take such
literals, and a model is a bool list indexed by variable.  Inside, a
literal is a code, 2v for v and 2v+1 for -v: negation is `code ^ 1`, the
variable is `code >> 1`, and a code indexes the value and watch lists
directly.  Clauses, watches, the trail and reasons all hold codes, so the
search loops never convert.

This is deliberately plain Python: the bounded puzzle encodings it has to
digest are in the tens of thousands of clauses, where careful inner loops
are fast enough.  Heavier workloads can be routed to any external DIMACS
solver instead.
"""

from __future__ import annotations

import time


class SolverBudgetExceeded(Exception):
    """Raised when a deadline expires mid-search."""


def _luby(i: int) -> int:
    # Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << (k - 1)) - 1
        k = 1
        while (1 << k) - 1 < i:
            k += 1
    return 1 << (k - 1)


class CdclSolver:
    def __init__(self) -> None:
        self.nvars = 0
        self.learnts: list[list[int]] = []
        # the code table: v -> 2v and -v -> 2v+1 are pos_code[v], neg_code[v]
        self.pos_code: list[int] = [0]
        self.neg_code: list[int] = [1]
        # per literal code: +1 true, -1 false, 0 unassigned
        self.value: list[int] = [0, 0]
        self.watches: list[list[list[int]]] = [[], []]  # code -> clauses
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]
        self.seen: list[bool] = [False]  # `_analyze`'s marks, all False between calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        # False once the clauses alone are unsatisfiable: an empty clause,
        # or a conflict at level 0 while loading or searching
        self.ok = True
        # cumulative over all solve calls
        self.conflicts = 0
        self.decisions = 0

    # -- construction ------------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        if n <= self.nvars:
            return
        added = n - self.nvars
        first = (self.nvars + 1) << 1
        self.pos_code.extend(range(first, (n + 1) << 1, 2))
        self.neg_code.extend(range(first | 1, (n + 1) << 1, 2))
        self.nvars = n
        self.value.extend([0] * (2 * added))
        self.watches.extend([] for _ in range(2 * added))
        self.level.extend([0] * added)
        self.reason.extend([None] * added)
        self.activity.extend([0.0] * added)
        self.phase.extend([False] * added)
        self.seen.extend([False] * added)

    def add_clause(self, lits) -> bool:
        """Add a problem clause; returns False if the formula is now trivially
        unsatisfiable (empty clause or conflicting units at level 0)."""
        if not self.ok:
            return False
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            self.ensure_vars(abs(lit))
            code = self.pos_code[lit] if lit > 0 else self.neg_code[-lit]
            v = self.value[code]
            if v == 1 and self.level[code >> 1] == 0:
                return True  # already satisfied at root
            if v == -1 and self.level[code >> 1] == 0:
                continue  # root-false literal drops out
            out.append(code)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None) or self._propagate() is not None:
                self.ok = False
                return False
            return True
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)
        return True

    def add_clauses(self, clauses) -> bool:
        """Add problem clauses in order, with the same result as `add_clause`
        on each in turn: False, and nothing more added, once the formula is
        trivially unsatisfiable.  A clause of two or more distinct variables,
        none of them assigned, is attached directly; any other goes the way
        `add_clause` takes."""
        if not self.ok:
            return False
        pos_code = self.pos_code
        neg_code = self.neg_code
        value = self.value
        watches = self.watches
        for lits in clauses:
            try:
                codes = [pos_code[lit] if lit > 0 else neg_code[-lit] for lit in lits]
            except IndexError:  # a variable beyond nvars
                codes = None
            if (
                codes is not None
                and len(codes) > 1
                and not any(map(value.__getitem__, codes))
                and (
                    codes[0] ^ codes[1] > 1
                    if len(codes) == 2
                    else len({c >> 1 for c in codes}) == len(codes)
                )
            ):
                watches[codes[0]].append(codes)
                watches[codes[1]].append(codes)
            elif not self.add_clause(lits):
                return False
        return True

    # -- trail management --------------------------------------------------

    def _enqueue(self, code: int, reason: list[int] | None) -> bool:
        val = self.value[code]
        if val != 0:
            return val == 1
        self.value[code] = 1
        self.value[code ^ 1] = -1
        var = code >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = not code & 1
        self.trail.append(code)
        return True

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        value = self.value
        reason = self.reason
        for code in self.trail[bound:]:
            value[code] = 0
            value[code ^ 1] = 0
            reason[code >> 1] = None
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        value = self.value
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        phase = self.phase
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_code = trail[qhead] ^ 1
            qhead += 1
            watchlist = watches[false_code]
            i = 0
            j = 0
            n = len(watchlist)
            while i < n:
                clause = watchlist[i]
                i += 1
                # make sure the false literal is in slot 1
                if clause[0] == false_code:
                    clause[0] = clause[1]
                    clause[1] = false_code
                first = clause[0]
                if value[first] == 1:
                    watchlist[j] = clause
                    j += 1
                    continue
                # look for a replacement watch
                for k in range(2, len(clause)):
                    other = clause[k]
                    if value[other] != -1:
                        clause[1] = other
                        clause[k] = false_code
                        watches[other].append(clause)
                        break
                else:
                    # unit or conflicting
                    watchlist[j] = clause
                    j += 1
                    if value[first] == -1:
                        del watchlist[j:i]
                        self.qhead = len(trail)
                        return clause
                    value[first] = 1
                    value[first ^ 1] = -1
                    var = first >> 1
                    level[var] = lvl
                    reason[var] = clause
                    phase[var] = not first & 1
                    trail.append(first)
            del watchlist[j:]
        self.qhead = qhead
        return None

    # -- conflict analysis -------------------------------------------------

    def _rescale_activity(self) -> None:
        inv = 1e-100
        for v in range(1, self.nvars + 1):
            self.activity[v] *= inv
        self.var_inc *= inv

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning: resolve the conflict backwards along the trail
        until one literal of the current decision level remains."""
        level = self.level
        trail = self.trail
        activity = self.activity
        learnt = [0]  # slot 0 receives the asserting literal
        seen = self.seen
        counter = 0
        lits = conflict  # then each reason clause without its slot 0
        index = len(trail)
        cur_level = len(self.trail_lim)
        while True:
            for q in lits:
                var = q >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                activity[var] += self.var_inc
                if activity[var] > 1e100:
                    self._rescale_activity()
                if level[var] >= cur_level:
                    counter += 1
                else:
                    learnt.append(q)
            index -= 1
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            seen[p >> 1] = False
            counter -= 1
            if counter == 0:
                break
            lits = self.reason[p >> 1][1:]
        learnt[0] = p ^ 1
        # only the learnt clause's own variables are still marked
        for q in learnt:
            seen[q >> 1] = False
        if len(learnt) == 1:
            return learnt, 0
        back = max(level[q >> 1] for q in learnt[1:])
        # move a literal of the backjump level into slot 1 for watching
        for idx in range(1, len(learnt)):
            if level[learnt[idx] >> 1] == back:
                learnt[1], learnt[idx] = learnt[idx], learnt[1]
                break
        return learnt, back

    # -- main search -------------------------------------------------------

    def solve(
        self, assumptions: tuple[int, ...] = (), deadline: float | None = None
    ) -> list[bool] | None:
        """Return a model as a bool list indexed by variable (index 0 unused),
        or None when unsatisfiable under the assumptions.  A conflict at
        level 0 refutes the clauses themselves, so every later call returns
        None too, whatever clauses are added."""
        if not self.ok:
            return None
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        assumed = [
            self.pos_code[lit] if lit > 0 else self.neg_code[-lit] for lit in assumptions
        ]
        value = self.value
        conflict_count = 0
        restart_idx = 1
        restart_budget = 100 * _luby(restart_idx)
        max_learnts = 4000
        order = self._order()
        order_pos = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflict_count += 1
                self.conflicts += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return None
                if conflict_count % 256 == 0 and deadline is not None:
                    if time.monotonic() > deadline:
                        self._cancel_until(0)
                        raise SolverBudgetExceeded
                learnt, back = self._analyze(conflict)
                self._cancel_until(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return None
                else:
                    self.learnts.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                if conflict_count >= restart_budget:
                    restart_idx += 1
                    restart_budget = conflict_count + 100 * _luby(restart_idx)
                    self._cancel_until(0)
                    order = self._order()
                    order_pos = 0
                if len(self.learnts) > max_learnts:
                    self._reduce_learnts()
                    max_learnts += 500
                continue

            # pick the next assumption, if any remain unsatisfied
            lvl = len(self.trail_lim)
            decided = False
            while lvl < len(assumed):
                a = assumed[lvl]
                val = value[a]
                if val == 1:
                    self.trail_lim.append(len(self.trail))
                    lvl += 1
                    continue
                if val == -1:
                    self._cancel_until(0)
                    return None
                self.trail_lim.append(len(self.trail))
                self._enqueue(a, None)
                decided = True
                break
            if decided:
                continue

            # free decision
            var = 0
            while order_pos < len(order):
                cand = order[order_pos]
                order_pos += 1
                if value[cand << 1] == 0:
                    var = cand
                    break
            if var == 0:
                # the lowest unassigned variable: both its codes read 0
                try:
                    var = value.index(0, 2) >> 1
                except ValueError:
                    model = [v == 1 for v in value[::2]]
                    self._cancel_until(0)
                    return model
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var << 1 if self.phase[var] else (var << 1) | 1, None)

    def _order(self) -> list[int]:
        """Variables by decreasing activity, ties by increasing number (the
        sort is stable, reversed or not)."""
        return sorted(range(1, self.nvars + 1), key=self.activity.__getitem__, reverse=True)

    def _reduce_learnts(self) -> None:
        reason = self.reason
        locked = {id(reason[c >> 1]) for c in self.trail if reason[c >> 1]}
        keep: list[list[int]] = []
        removable: list[list[int]] = []
        for c in self.learnts:
            if id(c) in locked or len(c) <= 2:
                keep.append(c)
            else:
                removable.append(c)
        removable.sort(key=len)
        cut = len(removable) // 2
        dropped = removable[cut:]
        keep.extend(removable[:cut])
        drop_ids = {id(c) for c in dropped}
        if not drop_ids:
            return
        self.learnts = keep
        for code in range(2, 2 * self.nvars + 2):
            wl = self.watches[code]
            self.watches[code] = [c for c in wl if id(c) not in drop_ids]


def solve_clauses(
    clauses,
    nvars: int,
    assumptions: tuple[int, ...] = (),
    deadline: float | None = None,
) -> list[bool] | None:
    """One-shot convenience wrapper: solve a clause list, return a model or None."""
    solver = CdclSolver()
    solver.ensure_vars(nvars)
    if not solver.add_clauses(clauses):
        return None
    return solver.solve(assumptions=assumptions, deadline=deadline)
