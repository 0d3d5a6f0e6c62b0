"""Procedures and programs.

A :class:`Procedure` is a named body with typed parameters and locals —
the unit of differentiation (Tapenade differentiates one "head"
routine). A :class:`Program` is a collection of procedures; the paper's
benchmarks are all single-procedure, but the container keeps the public
API future-proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .stmt import Loop, Stmt, copy_body, walk_stmts
from .types import ArrayType, Intent, ScalarType, Type


@dataclass(frozen=True)
class Param:
    """A procedure parameter with its type and dataflow intent."""

    name: str
    type: Type
    intent: Intent = Intent.INOUT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type} :: {self.name} ! intent({self.intent})"


class Procedure:
    """A single procedure: parameters, locals, and a statement body."""

    def __init__(
        self,
        name: str,
        params: Sequence[Param] = (),
        locals: Optional[Dict[str, Type]] = None,
        body: Sequence[Stmt] = (),
    ) -> None:
        self.name = name
        self.params: List[Param] = list(params)
        self.locals: Dict[str, Type] = dict(locals or {})
        self.body: List[Stmt] = list(body)
        seen: set[str] = set()
        for p in self.params:
            if p.name in seen:
                raise ValueError(f"duplicate parameter {p.name!r} in {name!r}")
            seen.add(p.name)
        for lname in self.locals:
            if lname in seen:
                raise ValueError(f"local {lname!r} shadows a parameter in {name!r}")

    # ------------------------------------------------------------------
    # Symbol table queries
    # ------------------------------------------------------------------
    def type_of(self, name: str) -> Type:
        for p in self.params:
            if p.name == name:
                return p.type
        if name in self.locals:
            return self.locals[name]
        raise KeyError(f"unknown symbol {name!r} in procedure {self.name!r}")

    def has_symbol(self, name: str) -> bool:
        return name in self.locals or any(p.name == name for p in self.params)

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"no parameter {name!r} in procedure {self.name!r}")

    def symbols(self) -> Iterator[str]:
        for p in self.params:
            yield p.name
        yield from self.locals

    def arrays(self) -> Iterator[str]:
        for name in self.symbols():
            if self.type_of(name).is_array:
                yield name

    def scalars(self) -> Iterator[str]:
        for name in self.symbols():
            if not self.type_of(name).is_array:
                yield name

    def inputs(self) -> List[str]:
        """Parameter names with input intent."""
        return [p.name for p in self.params if p.intent.is_input]

    def outputs(self) -> List[str]:
        """Parameter names with output intent."""
        return [p.name for p in self.params if p.intent.is_output]

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def statements(self) -> Iterator[Stmt]:
        return walk_stmts(self.body)

    def parallel_loops(self) -> List[Loop]:
        return [s for s in self.statements() if isinstance(s, Loop) and s.parallel]

    def copy(self, *, name: Optional[str] = None) -> "Procedure":
        """Deep copy (fresh statement uids)."""
        return Procedure(
            name or self.name,
            list(self.params),
            dict(self.locals),
            copy_body(self.body),
        )

    def __repr__(self) -> str:
        return f"<Procedure {self.name} params={len(self.params)} stmts={len(self.body)}>"


class Program:
    """A collection of procedures keyed by name."""

    def __init__(self, procedures: Iterable[Procedure] = ()) -> None:
        self.procedures: Dict[str, Procedure] = {}
        for proc in procedures:
            self.add(proc)

    def add(self, proc: Procedure) -> None:
        if proc.name in self.procedures:
            raise ValueError(f"duplicate procedure {proc.name!r}")
        self.procedures[proc.name] = proc

    def __getitem__(self, name: str) -> Procedure:
        return self.procedures[name]

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self.procedures.values())

    def __len__(self) -> int:
        return len(self.procedures)
