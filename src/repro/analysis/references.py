"""Array-reference collection for parallel regions.

FormAD's knowledge extraction (paper §5, phase 1) needs, for every
shared array in a parallel region, all read and all write references
with their index expressions and control contexts. This module walks a
parallel loop body and produces that inventory, classifying exact
increments separately (paper §5.4: the adjoint of an increment only
reads, which shrinks the set of pairs to analyze).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from ..ir.expr import ArrayRef, Expr, Var, walk
from ..ir.stmt import Assign, If, Loop, Pop, Push, Stmt
from ..cfg.contexts import Context, ContextMap, build_contexts
from .increments import match_increment


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    INCREMENT = "increment"

    @property
    def is_write(self) -> bool:
        """Increment counts as a write for primal conflict purposes."""
        return self in (AccessKind.WRITE, AccessKind.INCREMENT)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, eq=False)
class ArrayAccess:
    """One array reference at one program point.

    Compared and hashed by identity, like the statement it sits in: an
    access is one occurrence, and the index translator keys its
    per-region cache on the access object.
    """

    array: str
    indices: Tuple[Expr, ...]
    kind: AccessKind
    stmt: Stmt

    def __str__(self) -> str:
        idx = ", ".join(map(str, self.indices))
        return f"{self.kind}:{self.array}({idx})@{self.stmt.uid}"


@dataclass
class RegionReferences:
    """All array accesses of one parallel region, plus its context map."""

    accesses: List[ArrayAccess]
    contexts: ContextMap

    def arrays(self) -> List[str]:
        return sorted({a.array for a in self.accesses})

    def of_array(self, name: str) -> List[ArrayAccess]:
        return [a for a in self.accesses if a.array == name]

    def reads(self, name: str) -> List[ArrayAccess]:
        return [a for a in self.of_array(name) if a.kind is AccessKind.READ]

    def writes(self, name: str) -> List[ArrayAccess]:
        """WRITE and INCREMENT accesses (both write memory)."""
        return [a for a in self.of_array(name) if a.kind.is_write]

    def context_of(self, access: ArrayAccess) -> Context:
        return self.contexts.context_of(access.stmt)


def _reads_in_expr(expr: Expr, stmt: Stmt) -> Iterator[ArrayAccess]:
    for node in walk(expr):
        if isinstance(node, ArrayRef):
            yield ArrayAccess(node.name, node.indices, AccessKind.READ, stmt)


def collect_region_references(body: Sequence[Stmt]) -> RegionReferences:
    """Collect every array access in a parallel region body."""
    contexts = build_contexts(body)
    accesses: List[ArrayAccess] = []

    def visit(stmts: Sequence[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                inc = match_increment(stmt)
                if inc is not None and isinstance(stmt.target, ArrayRef):
                    accesses.append(ArrayAccess(stmt.target.name,
                                                stmt.target.indices,
                                                AccessKind.INCREMENT, stmt))
                    # Index expressions of the target are still reads.
                    for idx in stmt.target.indices:
                        accesses.extend(_reads_in_expr(idx, stmt))
                    # The delta is read; the target's own read is part of
                    # the increment and not reported separately.
                    accesses.extend(_reads_in_expr(inc.delta, stmt))
                    continue
                if isinstance(stmt.target, ArrayRef):
                    accesses.append(ArrayAccess(stmt.target.name,
                                                stmt.target.indices,
                                                AccessKind.WRITE, stmt))
                    for idx in stmt.target.indices:
                        accesses.extend(_reads_in_expr(idx, stmt))
                accesses.extend(_reads_in_expr(stmt.value, stmt))
            elif isinstance(stmt, If):
                accesses.extend(_reads_in_expr(stmt.cond, stmt))
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, Loop):
                for e in (stmt.start, stmt.stop, stmt.step):
                    accesses.extend(_reads_in_expr(e, stmt))
                visit(stmt.body)
            elif isinstance(stmt, Push):
                accesses.extend(_reads_in_expr(stmt.value, stmt))
            elif isinstance(stmt, Pop):
                if isinstance(stmt.target, ArrayRef):
                    accesses.append(ArrayAccess(stmt.target.name,
                                                stmt.target.indices,
                                                AccessKind.WRITE, stmt))
                    for idx in stmt.target.indices:
                        accesses.extend(_reads_in_expr(idx, stmt))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected statement {stmt!r}")

    visit(body)
    return RegionReferences(accesses, contexts)
