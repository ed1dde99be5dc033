"""Backend sessions for tests: a one-shot solve of a whole instance, and
sessions that record what the solving route hands them."""

from __future__ import annotations

from puzznic.backends import InternalBackend
from puzznic.cnf import CnfInstance, VarMap


def solve(instance: CnfInstance, assumptions=(), session=None):
    """Load `instance` into `session` (a fresh internal one by default) in
    one `add`, with its branch hints, and solve it once."""
    session = InternalBackend() if session is None else session
    session.add(instance.clauses, instance.num_vars, instance.branch_hints)
    return session(assumptions)


class Recording(InternalBackend):
    """Internal session that records what it is given and, per call, the
    horizon and the verdict.  Step 0 is the first `add` and every later one
    is one step, so the horizon is the number of `add`s less one.  Given
    the level's match-step cap K, it also records each call's move bound,
    the horizon less K."""

    def __init__(self, cap: int | None = None):
        super().__init__()
        self.cap = cap
        self.clauses: list[tuple[int, ...]] = []  # every clause given, in order
        self.num_vars = 0
        self.adds = 0
        self.verdicts: list[tuple[int, bool]] = []
        self.bounds: list[int] = []

    def add(self, clauses, num_vars, hints=()):
        self.clauses.extend(clauses)
        self.num_vars = num_vars
        self.adds += 1
        return self.load(clauses, num_vars, hints)

    def load(self, clauses, num_vars, hints):
        return super().add(clauses, num_vars, hints)

    def __call__(self, assumptions=(), deadline=None):
        model = self.answer(assumptions, deadline)
        horizon = self.adds - 1
        self.verdicts.append((horizon, model is not None))
        if self.cap is not None:
            self.bounds.append(horizon - self.cap)
        return model

    def answer(self, assumptions, deadline):
        return super().__call__(assumptions, deadline)


class Unsat(Recording):
    """Answers every call UNSAT without solving, so the route builds every
    horizon up to its bound; `instances` holds, per call, the cumulative
    formula with the call's assumptions as unit clauses: the DIMACS an
    external solver would be given, which has no variable map."""

    def __init__(self, cap: int | None = None):
        super().__init__(cap)
        self.instances: list[CnfInstance] = []

    def load(self, clauses, num_vars, hints):
        return True

    def answer(self, assumptions, deadline):
        units = tuple((lit,) for lit in assumptions)
        clauses = (*self.clauses, *units)
        self.instances.append(CnfInstance(self.num_vars, clauses, VarMap(()), {}))
        return None
