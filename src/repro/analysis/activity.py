"""Activity analysis (paper §5.4).

A variable is *active* when it is both **varied** (its value depends on
an independent input) and **useful** (its value influences a dependent
output). Only differentiable-typed data (``real``) can be varied or
useful; integer index variables never carry derivatives, which is what
lets FormAD use them freely in index knowledge.

Granularity is the whole variable/array name, computed as a fixpoint
over the procedure body (re-walking until stable handles loops). This
matches what Tapenade's analysis contributes to FormAD: fewer adjoint
references to analyze, because inactive reads never produce adjoint
increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Set

from ..ir.expr import names_in
from ..ir.program import Procedure
from ..ir.stmt import Assign, If, Loop, Pop, Push, Stmt
from ..ir.types import Kind


def _real_names(proc: Procedure, names: Iterable[str]) -> Set[str]:
    out = set()
    for n in names:
        if proc.has_symbol(n) and proc.type_of(n).kind is Kind.REAL:
            out.add(n)
    return out


@dataclass
class ActivityAnalysis:
    """Varied/useful/active name sets for one procedure."""

    proc: Procedure
    independents: Sequence[str]
    dependents: Sequence[str]
    varied: Set[str] = field(default_factory=set)
    useful: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        for name in list(self.independents) + list(self.dependents):
            if not self.proc.has_symbol(name):
                raise KeyError(f"unknown independent/dependent {name!r}")
            if self.proc.type_of(name).kind is not Kind.REAL:
                raise TypeError(f"{name!r} is not differentiable (not real)")
        self.varied = self._fixpoint_varied()
        self.useful = self._fixpoint_useful()

    # ------------------------------------------------------------------
    @property
    def active(self) -> Set[str]:
        return self.varied & self.useful

    def is_active(self, name: str) -> bool:
        return name in self.active

    # ------------------------------------------------------------------
    def _fixpoint_varied(self) -> Set[str]:
        varied = _real_names(self.proc, self.independents)
        changed = True
        while changed:
            changed = False
            for stmt in self.proc.statements():
                if not isinstance(stmt, Assign):
                    continue
                reads = _real_names(self.proc, names_in(stmt.value))
                if reads & varied and stmt.target.name not in varied:
                    if self.proc.has_symbol(stmt.target.name) and \
                            self.proc.type_of(stmt.target.name).kind is Kind.REAL:
                        varied.add(stmt.target.name)
                        changed = True
        return varied

    def _fixpoint_useful(self) -> Set[str]:
        useful = _real_names(self.proc, self.dependents)
        changed = True
        while changed:
            changed = False
            for stmt in self.proc.statements():
                if not isinstance(stmt, Assign):
                    continue
                if stmt.target.name in useful:
                    reads = _real_names(self.proc, names_in(stmt.value))
                    new = reads - useful
                    if new:
                        useful |= new
                        changed = True
        return useful
