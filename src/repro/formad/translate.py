"""Translation of IR index expressions into SMT terms (paper §6).

Each scalar variable is rendered with its *instance number* (§5.2) —
``n_cell_entries_0``, ``i_0`` — exactly like the paper's LBM listing.
Private variables (and any scalar assigned inside the region, whose
per-iteration value differs between threads) receive a primed sibling
on the left-hand side of every pair (§5.3). Array reads inside index
expressions (``c(i)``, ``mss(1, ig, k12)``) become uninterpreted
function applications, provided the array is not written in the region
(a written index array has no stable function semantics and makes the
expression untranslatable — the conservative outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union

from ..analysis.references import ArrayAccess
from ..cfg.instances import InstanceNumbering
from ..ir.expr import (ArrayRef, BinOp, Const, Expr, Op, UnOp, Var)
from ..ir.stmt import Stmt
from ..smt.terms import TAdd, TApp, TConst, Term, TMul, TVar


class UntranslatableError(ValueError):
    """The expression falls outside the linear+indirection fragment."""


#: An access's index tuple translated, with its :func:`render_tuple`.
Translation = Tuple[Tuple[Term, ...], str]


@dataclass
class IndexTranslator:
    """Translates index expressions of one parallel region.

    :meth:`translate_access` translates and renders each (access, side)
    of the region once and keeps the outcome, an
    :class:`UntranslatableError` included, for the translator's
    lifetime. Its first call for a pair makes exactly the
    ``instance_at`` calls an uncached translation would, in the same
    order, so instance numbers do not depend on the cache.
    """

    instancer: InstanceNumbering
    primed_names: FrozenSet[str]
    written_arrays: FrozenSet[str]
    # (access, primed) -> its Translation, or the message of the
    # UntranslatableError translating it raised. Keyed by the access
    # object itself (identity hash), which the entry keeps alive.
    _accesses: Dict[Tuple[ArrayAccess, bool], Union[Translation, str]] = \
        field(default_factory=dict, init=False, repr=False, compare=False)

    def scalar_term(self, name: str, stmt: Stmt, primed: bool) -> TVar:
        inst = self.instancer.instance_at(stmt, name)
        base = f"{name}_{inst}"
        if primed and name in self.primed_names:
            base += "'"
        return TVar(base)

    def translate(self, expr: Expr, stmt: Stmt, *, primed: bool) -> Term:
        """Translate one index expression as used at *stmt*.

        ``primed=True`` renders the "other iteration" copy: private
        variables get their sibling names.
        """
        if isinstance(expr, Const):
            if isinstance(expr.value, int) and not isinstance(expr.value, bool):
                return TConst(expr.value)
            raise UntranslatableError(f"non-integer constant {expr}")
        if isinstance(expr, Var):
            return self.scalar_term(expr.name, stmt, primed)
        if isinstance(expr, ArrayRef):
            if expr.name in self.written_arrays:
                raise UntranslatableError(
                    f"index array {expr.name!r} is written inside the region")
            args = tuple(self.translate(i, stmt, primed=primed)
                         for i in expr.indices)
            return TApp(expr.name, args)
        if isinstance(expr, UnOp) and expr.op is Op.NEG:
            return _negate(self.translate(expr.operand, stmt, primed=primed))
        if isinstance(expr, BinOp):
            left = expr.left
            right = expr.right
            if expr.op is Op.ADD:
                return TAdd((self.translate(left, stmt, primed=primed),
                             self.translate(right, stmt, primed=primed)))
            if expr.op is Op.SUB:
                return TAdd((self.translate(left, stmt, primed=primed),
                             _negate(self.translate(right, stmt,
                                                    primed=primed))))
            if expr.op is Op.MUL:
                const = _const_int(left)
                if const is not None:
                    return TMul(const, self.translate(right, stmt, primed=primed))
                const = _const_int(right)
                if const is not None:
                    return TMul(const, self.translate(left, stmt, primed=primed))
                raise UntranslatableError(f"nonlinear product {expr}")
            raise UntranslatableError(f"operator {expr.op} in index expression")
        raise UntranslatableError(f"cannot translate {expr}")

    def translate_access(self, access: ArrayAccess, *,
                         primed: bool) -> Translation:
        """The index tuple of *access*, translated as used at its
        statement, and its :func:`render_tuple` rendering; raises
        :class:`UntranslatableError` when the tuple has no translation."""
        key = (access, primed)
        outcome = self._accesses.get(key)
        if outcome is None:
            try:
                terms = tuple(self.translate(e, access.stmt, primed=primed)
                              for e in access.indices)
                outcome = (terms, render_tuple(terms))
            except UntranslatableError as exc:
                outcome = str(exc)
            self._accesses[key] = outcome
        if isinstance(outcome, str):
            raise UntranslatableError(outcome)
        return outcome


def _negate(term: Term) -> Term:
    if isinstance(term, TConst):
        return TConst(-term.value)
    if isinstance(term, TMul):
        return TMul(-term.coeff, term.term)
    return TMul(-1, term)


def _const_int(expr: Expr) -> Optional[int]:
    neg = False
    while isinstance(expr, UnOp) and expr.op is Op.NEG:
        neg = not neg
        expr = expr.operand
    if isinstance(expr, Const) and isinstance(expr.value, int) \
            and not isinstance(expr.value, bool):
        return -expr.value if neg else expr.value
    return None


def render_tuple(terms: Sequence[Term]) -> str:
    """Paper-style rendering of an index tuple: ``(a, b)``, or the one
    term of a 1-tuple."""
    if len(terms) == 1:
        return render_term(terms[0])
    return "(" + ", ".join(render_term(t) for t in terms) + ")"


def render_term(term: Term) -> str:
    """Paper-style rendering: ``(w_0 + n_cell_entries_0*-1 + i_0)``."""
    if isinstance(term, TConst):
        return str(term.value)
    if isinstance(term, TVar):
        return term.name
    if isinstance(term, TMul):
        return f"{render_term(term.term)}*{term.coeff}"
    if isinstance(term, TAdd):
        parts: list[str] = []
        stack = list(reversed(term.terms))
        while stack:
            t = stack.pop()
            if isinstance(t, TAdd):  # flatten for the paper's layout
                stack.extend(reversed(t.terms))
            else:
                parts.append(render_term(t))
        return "(" + " + ".join(parts) + ")"
    if isinstance(term, TApp):
        return f"{term.func}({', '.join(render_term(a) for a in term.args)})"
    raise TypeError(f"not a term: {term!r}")  # pragma: no cover
