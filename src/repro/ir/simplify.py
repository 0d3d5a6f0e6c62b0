"""Algebraic simplification of IR expressions.

Used by the AD engines to clean up generated derivative expressions
(seeded chain-rule products produce ``1.0 * x`` and ``x + 0.0`` noise)
and by the pretty printer tests. The rules are conservative value-
preserving identities:

* constant folding of arithmetic on literals,
* additive/multiplicative identities and annihilators
  (``x + 0``, ``0 * x``, ``1 * x``, ``x ** 1``),
* double negation,
* ``x - x -> 0`` for syntactically identical pure operands.

Float semantics note: ``0.0 * x -> 0.0`` is applied, which is the usual
AD convention (it discards signed zeros / NaN propagation from inactive
slots, exactly like every source-transformation AD tool).
"""

from __future__ import annotations

from typing import Optional

from .expr import (ArrayRef, BinOp, Call, Compare, Const, Expr, Logical, Op,
                   UnOp, Var, int_div)


def _const(expr: Expr) -> Optional[float | int]:
    if isinstance(expr, Const) and not isinstance(expr.value, bool):
        return expr.value
    return None


def _is_zero(expr: Expr) -> bool:
    v = _const(expr)
    return v == 0


def _is_one(expr: Expr) -> bool:
    v = _const(expr)
    return v == 1


def simplify(expr: Expr) -> Expr:
    """Return a simplified, value-equal expression."""
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, tuple(simplify(i) for i in expr.indices))
    if isinstance(expr, UnOp):
        inner = simplify(expr.operand)
        if isinstance(inner, UnOp) and inner.op is Op.NEG:
            return inner.operand  # --x -> x
        c = _const(inner)
        if c is not None:
            return Const(-c)
        return UnOp(expr.op, inner)
    if isinstance(expr, Call):
        return Call(expr.func, tuple(simplify(a) for a in expr.args))
    if isinstance(expr, Compare):
        return Compare(expr.op, simplify(expr.left), simplify(expr.right))
    if isinstance(expr, Logical):
        return Logical(expr.op, tuple(simplify(o) for o in expr.operands))
    assert isinstance(expr, BinOp)
    left = simplify(expr.left)
    right = simplify(expr.right)
    lc, rc = _const(left), _const(right)
    op = expr.op

    if lc is not None and rc is not None:
        return _fold(op, lc, rc) or BinOp(op, left, right)

    if op is Op.ADD:
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
        if isinstance(right, UnOp) and right.op is Op.NEG:
            return simplify(BinOp(Op.SUB, left, right.operand))
    elif op is Op.SUB:
        if _is_zero(right):
            return left
        if _is_zero(left):
            return simplify(UnOp(Op.NEG, right))
        if left == right and _pure(left):
            return Const(0.0)
    elif op is Op.MUL:
        if _is_zero(left) or _is_zero(right):
            return Const(0.0)
        if _is_one(left):
            return right
        if _is_one(right):
            return left
        if lc == -1:
            return simplify(UnOp(Op.NEG, right))
        if rc == -1:
            return simplify(UnOp(Op.NEG, left))
    elif op is Op.DIV:
        if _is_zero(left) and _pure(right):
            return Const(0.0)
        if _is_one(right):
            return left
    elif op is Op.POW:
        if _is_one(right):
            return left
        if _is_zero(right) and _pure(left):
            return Const(1.0)
    return BinOp(op, left, right)


def _fold(op: Op, a, b) -> Optional[Const]:
    try:
        if op is Op.ADD:
            return Const(a + b)
        if op is Op.SUB:
            return Const(a - b)
        if op is Op.MUL:
            return Const(a * b)
        if op is Op.DIV:
            if b == 0:
                return None
            if isinstance(a, int) and isinstance(b, int):
                return Const(int_div(a, b))
            return Const(a / b)
        if op is Op.POW:
            return Const(a ** b)
    except (OverflowError, ValueError):  # pragma: no cover - huge consts
        return None
    return None


def _pure(expr: Expr) -> bool:
    """Expressions in this IR have no side effects; 'pure' here means
    'cheap to discard', which everything is."""
    return True
