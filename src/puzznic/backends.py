"""CNF solving backends.

A backend is one incremental solver session over one growing formula, in
the manner of IPASIR and MiniSat:

- `add(clauses, num_vars, hints=())` takes new clauses once, over variables
  numbered up to `num_vars`.  It returns False once it knows the clauses
  alone are unsatisfiable (the external backend never does), and every
  later call then returns None.  `hints` name action variables to branch
  on first; only variables new in this `add` are raised.
- `__call__(assumptions=(), deadline=None)` returns a model of every clause
  added so far, as a bool list indexed by variable, or None when there is
  none under the assumptions.

The internal backend is the bundled CDCL solver: one solver per session,
which keeps its learned clauses across calls.

The external backend shells out to any DIMACS solver that prints the
conventional `s SATISFIABLE`/`s UNSATISFIABLE` status and `v` literal lines
(exit codes 10/20 are also accepted).  It keeps the clauses added so far,
and each call writes them all, with the assumptions appended as unit
clauses, so the solver solves the same cumulative formula from scratch.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import time

from puzznic.cnf import CnfInstance, VarMap, parse_solver_output
from puzznic.satsolver import CdclSolver

ENV_BACKEND = "PUZZNIC_SAT_BACKEND"


class BackendFailure(Exception):
    """External solver crashed, timed out, or produced unusable output."""


class InternalBackend:
    """Bundled CDCL solver session."""

    def __init__(self) -> None:
        self._solver = CdclSolver()

    def add(self, clauses, num_vars: int, hints=()) -> bool:
        solver = self._solver
        first_new = solver.nvars + 1
        solver.ensure_vars(num_vars)
        for var in hints:
            if var >= first_new:
                solver.activity[var] = 1.0
        return solver.add_clauses(clauses)

    def __call__(self, assumptions=(), deadline=None):
        return self._solver.solve(assumptions=tuple(assumptions), deadline=deadline)


class ExternalBackend:
    """Runs `executable <dimacs-file>` per call and parses its output."""

    def __init__(self, executable: str):
        self.executable = executable
        self._clauses: list[tuple[int, ...]] = []
        self._num_vars = 0

    def add(self, clauses, num_vars: int, hints=()) -> bool:
        self._clauses.extend(clauses)
        self._num_vars = max(self._num_vars, num_vars)
        return True

    def __call__(self, assumptions=(), deadline=None):
        num_vars = self._num_vars
        units = [(lit,) for lit in assumptions]
        text = CnfInstance(num_vars, (*self._clauses, *units), VarMap(()), {}).to_dimacs()
        timeout = None
        if deadline is not None:
            timeout = max(0.1, deadline - time.monotonic())
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cnf", prefix="puzznic_", delete=False
        ) as handle:
            handle.write(text)
            path = handle.name
        try:
            proc = subprocess.run(
                [self.executable, path],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BackendFailure(f"backend timed out: {self.executable}") from exc
        except OSError as exc:
            raise BackendFailure(f"cannot run backend {self.executable}: {exc}") from exc
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
        status, lits = parse_solver_output(proc.stdout)
        is_sat = status.upper().startswith("SAT")
        is_unsat = status.upper().startswith("UNSAT")
        if not (is_sat or is_unsat):
            is_sat = proc.returncode == 10
            is_unsat = proc.returncode == 20
        if is_unsat:
            return None
        if not is_sat:
            raise BackendFailure(
                f"backend {self.executable} gave no verdict "
                f"(exit {proc.returncode}, status {status!r})"
            )
        model = [False] * (num_vars + 1)
        for lit in lits:
            var = abs(lit)
            if var <= num_vars:
                model[var] = lit > 0
        return model


def default_backend():
    """External backend when the environment points at one, else internal."""
    executable = os.environ.get(ENV_BACKEND)
    if executable:
        return ExternalBackend(executable)
    return InternalBackend()
