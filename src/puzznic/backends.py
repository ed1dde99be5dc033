"""CNF solving backends.

A backend is a callable `(instance, assumptions=(), deadline=None)` that
returns a model as a bool list indexed by variable, or None when the
instance is unsatisfiable under the assumptions.

The internal backend runs the bundled CDCL solver and keeps its last solver
alive.  A call on the same instance reuses it, so assumption-based
optimization keeps its learned clauses.  A call on an instance that shares
the cached `VarMap` and whose clauses begin with the clauses already loaded
(checked, not assumed) loads only the clauses that follow: this is how the
solving routes grow one formula and one solver across horizons, assuming
each horizon's goal literal.  Any other instance gets a new solver.

The external backend shells out to any DIMACS solver that prints the
conventional `s SATISFIABLE`/`s UNSATISFIABLE` status and `v` literal lines
(exit codes 10/20 are also accepted).  It is given the whole instance on
every call, with the assumptions appended as unit clauses, so it solves the
same cumulative formula from scratch.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import tempfile
import time

from puzznic.cnf import CnfInstance, parse_solver_output
from puzznic.satsolver import CdclSolver

ENV_BACKEND = "PUZZNIC_SAT_BACKEND"


class BackendFailure(Exception):
    """External solver crashed, timed out, or produced unusable output."""


class InternalBackend:
    """Bundled CDCL solver, reused across assumption calls and across
    instances that extend the loaded clauses."""

    def __init__(self) -> None:
        self._solver: CdclSolver | None = None
        self._varmap = None
        self._loaded: tuple = ()  # the clauses the solver holds, in order

    def _solver_for(self, instance: CnfInstance) -> CdclSolver:
        clauses = instance.clauses
        done = len(self._loaded)
        solver = self._solver
        if not (
            solver is not None
            and instance.varmap is self._varmap
            and len(clauses) >= done
            and clauses[:done] == self._loaded
        ):
            # free the old solver and its clauses before loading a new one
            self._solver, self._varmap, self._loaded = None, None, ()
            solver = CdclSolver()
            done = 0
        first_new = solver.nvars + 1
        solver.ensure_vars(instance.num_vars)
        for var in instance.branch_hints:
            if var >= first_new:
                solver.activity[var] = 1.0
        solver.add_clauses(clauses[done:] if done else clauses)
        self._solver, self._varmap, self._loaded = solver, instance.varmap, clauses
        return solver

    def __call__(self, instance, assumptions=(), deadline=None):
        solver = self._solver_for(instance)
        return solver.solve(assumptions=tuple(assumptions), deadline=deadline)


class ExternalBackend:
    """Runs `executable <dimacs-file>` per call and parses its output."""

    def __init__(self, executable: str):
        self.executable = executable

    def __call__(self, instance, assumptions=(), deadline=None):
        units = tuple((lit,) for lit in assumptions)
        text = dataclasses.replace(instance, clauses=instance.clauses + units).to_dimacs()
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
        model = [False] * (instance.num_vars + 1)
        for lit in lits:
            var = abs(lit)
            if var <= instance.num_vars:
                model[var] = lit > 0
        return model


def default_backend():
    """External backend when the environment points at one, else internal."""
    executable = os.environ.get(ENV_BACKEND)
    if executable:
        return ExternalBackend(executable)
    return InternalBackend()
