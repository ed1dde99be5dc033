"""CNF plumbing: variable maps, clause lists, DIMACS output.

Variables carry tagged meanings (cell values per step, move selectors, match
flags, gravity mappings, ...).  A formula grows one step at a time: each
step's meanings are numbered in lexicographic order of their tags after the
variables the formula already has, and Tseitin auxiliaries in creation
order, so two encodings of the same instance are byte-identical.  Every
literal is a DIMACS integer, and every clause a tuple of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat
from operator import add
from typing import Iterable

_VALUE_NAMES = {-1: "wall", 0: "empty"}


def _joined(m: tuple) -> str:
    return "/".join(map(str, m))


# Tag -> formatter of a meaning for `VarMap.describe`; other tags are joined.
_DESCRIBE = {
    "aux": lambda m: None,
    "cell": lambda m: f"cell[{m[1]},{m[2]},{m[3]}]={_VALUE_NAMES.get(m[4]) or f'p{m[4]}'}",
    "movesel": lambda m: f"move[{m[1]},{m[2]},{m[3]},{'L' if m[4] < 0 else 'R'}]",
    "matching": lambda m: f"matching[{m[1]}]",
    "matchflag": lambda m: f"matchflag[{m[1]},{m[2]},{m[3]}]",
    "mapsto": lambda m: f"mapsto[{m[1]},{m[2]},{m[3]}]={m[4]}",
    "moving": lambda m: f"moving[{m[1]}]",
    "dummy": lambda m: f"dummy[{m[1]}]",
}


class VarMap:
    """Bijection between CNF variables and tagged meanings.

    Meanings are tuples whose first element is the tag name, e.g.
    ("cell", step, row, col, value) or ("movesel", step, row, col, dir).
    """

    def __init__(self, meanings: Iterable[tuple]) -> None:
        self._by_meaning: dict[tuple, int] = {}
        self._by_var: list[tuple] = []
        self.extend(meanings)

    def extend(self, meanings: Iterable[tuple]) -> list[tuple]:
        """Number `meanings` after every existing variable, in sorted order
        among themselves: one step of a formula that grows step by step.
        Returns them in the order they were numbered."""
        ordered = sorted(meanings)
        for m in ordered:
            if m in self._by_meaning:
                raise ValueError(f"meaning {m} is already numbered")
            self._by_meaning[m] = len(self._by_var) + 1
            self._by_var.append(m)
        return ordered

    def var(self, *meaning) -> int:
        return self._by_meaning[meaning]

    def has(self, *meaning) -> bool:
        return meaning in self._by_meaning

    def aux(self) -> int:
        m = ("aux", len(self._by_var))
        self._by_meaning[m] = len(self._by_var) + 1
        self._by_var.append(m)
        return self._by_meaning[m]

    def meaning(self, var: int) -> tuple:
        return self._by_var[var - 1]

    def __len__(self) -> int:
        return len(self._by_var)

    def describe(self, var: int) -> str | None:
        """Human meaning for the DIMACS comment map; None for auxiliaries."""
        m = self._by_var[var - 1]
        return _DESCRIBE.get(m[0], _joined)(m)

    def iter_meanings(self):
        for i, m in enumerate(self._by_var, start=1):
            yield i, m


class ClauseBuilder:
    """The clause list of one formula, with its at-most-one encoding.

    The constraint groups extend `clauses` with their tuples directly and
    call `at_most_one` once per list of literals, which keeps the choice of
    at-most-one encoding in this class.
    """

    def __init__(self) -> None:
        self.clauses: list[tuple[int, ...]] = []

    def at_most_one(self, lits) -> None:
        """Pairwise: (-a or -b) for every pair, in the order of `lits`."""
        self.clauses.extend(combinations([-lit for lit in lits], 2))


@dataclass(frozen=True)
class CnfInstance:
    """A propositional encoding plus the meaning of its variables.

    `meta` records the mode ("fixed" or "varmoves"), the horizon and the
    level, which `decode_model` reads.  `branch_hints` lists the action
    variables a solver may branch on first.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    varmap: VarMap
    meta: dict
    branch_hints: tuple[int, ...] = ()

    def to_dimacs(self) -> str:
        """DIMACS text: a `c map` comment per named variable, the header, one
        0-terminated line per clause.

        The body is one C-level join over a flat stream of tokens: each
        clause with the sentinel None appended by tuple concatenation,
        flattened by `chain`, each item looked up in a token table built per
        call.  The table maps a literal to its text with the trailing space
        ("5 ", "-5 ") and None to "0\n", so no Python code runs per clause
        or per literal.  A literal that names no variable (0, or beyond
        num_vars) is not in the table and raises KeyError."""
        vm = self.varmap
        named = range(1, len(vm) + 1)
        descs = list(map(vm.describe, named))
        head = "".join(map("c map {} {}\n".format, compress(named, descs), filter(None, descs)))
        variables = range(1, self.num_vars + 1)
        token = dict(zip(variables, [f"{v} " for v in variables]))
        token.update(zip(range(-1, -self.num_vars - 1, -1), [f"-{v} " for v in variables]))
        token[None] = "0\n"
        stream = chain.from_iterable(map(add, self.clauses, repeat((None,))))
        body = "".join(map(token.__getitem__, stream))
        return f"{head}p cnf {self.num_vars} {len(self.clauses)}\n{body}"


def parse_solver_output(text: str) -> tuple[str, list[int]]:
    """Parse conventional SAT-competition output: an `s` status line plus
    `v` literal lines terminated by 0.  Returns (status, literals)."""
    status = ""
    lits: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                val = int(tok)
                if val != 0:
                    lits.append(val)
    return status, lits
