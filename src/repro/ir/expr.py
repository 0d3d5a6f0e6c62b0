"""Expression AST for the mini-language.

Expressions are immutable and hashable, so analyses can use them as
dictionary keys (the FormAD knowledge base keys assertions by index
expression). Operator overloading gives a compact builder syntax::

    i = Var("i")
    a = Var("a")
    expr = a[i - 1] * 2.0 + 1.5

Array indexing with ``a[i, j]`` produces an :class:`ArrayRef`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Mapping, Tuple


class _ExprOps:
    """Mixin providing Python operator overloading on expressions."""

    #: ``(variables, arrays)`` the node names, set once by
    #: :func:`_name_sets` (a frozen node can never name anything else).
    #: Not a dataclass field: it takes no part in equality or hashing.
    _names = None

    def __add__(self, other) -> "BinOp":
        return BinOp(Op.ADD, self, as_expr(other))

    def __radd__(self, other) -> "BinOp":
        return BinOp(Op.ADD, as_expr(other), self)

    def __sub__(self, other) -> "BinOp":
        return BinOp(Op.SUB, self, as_expr(other))

    def __rsub__(self, other) -> "BinOp":
        return BinOp(Op.SUB, as_expr(other), self)

    def __mul__(self, other) -> "BinOp":
        return BinOp(Op.MUL, self, as_expr(other))

    def __rmul__(self, other) -> "BinOp":
        return BinOp(Op.MUL, as_expr(other), self)

    def __truediv__(self, other) -> "BinOp":
        return BinOp(Op.DIV, self, as_expr(other))

    def __rtruediv__(self, other) -> "BinOp":
        return BinOp(Op.DIV, as_expr(other), self)

    def __pow__(self, other) -> "BinOp":
        return BinOp(Op.POW, self, as_expr(other))

    def __neg__(self) -> "UnOp":
        return UnOp(Op.NEG, self)

    # Comparisons build expression nodes, NOT booleans.  Structural
    # equality for container use is provided by ``same`` / dataclass eq.
    def eq(self, other) -> "Compare":
        return Compare(CmpOp.EQ, self, as_expr(other))

    def ne(self, other) -> "Compare":
        return Compare(CmpOp.NE, self, as_expr(other))

    def lt(self, other) -> "Compare":
        return Compare(CmpOp.LT, self, as_expr(other))

    def le(self, other) -> "Compare":
        return Compare(CmpOp.LE, self, as_expr(other))

    def gt(self, other) -> "Compare":
        return Compare(CmpOp.GT, self, as_expr(other))

    def ge(self, other) -> "Compare":
        return Compare(CmpOp.GE, self, as_expr(other))

    def logical_and(self, other) -> "Logical":
        return Logical(LogicOp.AND, (self, as_expr(other)))

    def logical_or(self, other) -> "Logical":
        return Logical(LogicOp.OR, (self, as_expr(other)))

    def logical_not(self) -> "Logical":
        return Logical(LogicOp.NOT, (self,))


class Op(enum.Enum):
    """Arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    POW = "**"
    NEG = "neg"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CmpOp(enum.Enum):
    """Comparison operators (Fortran spellings in the printer)."""

    EQ = "=="
    NE = "/="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def negate(self) -> "CmpOp":
        return _CMP_NEGATIONS[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_CMP_NEGATIONS = {
    CmpOp.EQ: CmpOp.NE,
    CmpOp.NE: CmpOp.EQ,
    CmpOp.LT: CmpOp.GE,
    CmpOp.LE: CmpOp.GT,
    CmpOp.GT: CmpOp.LE,
    CmpOp.GE: CmpOp.LT,
}


class LogicOp(enum.Enum):
    AND = ".and."
    OR = ".or."
    NOT = ".not."

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Const(_ExprOps):
    """A literal constant: integer, float, or bool."""

    value: int | float | bool

    def __post_init__(self):
        if not isinstance(self.value, (int, float, bool)):
            raise TypeError(f"bad constant: {self.value!r}")

    @property
    def is_integer(self) -> bool:
        return isinstance(self.value, int) and not isinstance(self.value, bool)

    def __str__(self) -> str:
        return repr(self.value) if not isinstance(self.value, float) else f"{self.value!r}"


@dataclass(frozen=True)
class Var(_ExprOps):
    """A reference to a scalar variable (or a whole array in contexts
    like reduction clauses)."""

    name: str

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"bad variable name: {self.name!r}")

    def __getitem__(self, idx) -> "ArrayRef":
        if not isinstance(idx, tuple):
            idx = (idx,)
        return ArrayRef(self.name, tuple(as_expr(e) for e in idx))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef(_ExprOps):
    """An array element reference ``name(idx_1, ..., idx_r)``."""

    name: str
    indices: Tuple["Expr", ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("ArrayRef needs at least one index")

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.indices))})"


@dataclass(frozen=True)
class BinOp(_ExprOps):
    op: Op
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(_ExprOps):
    op: Op
    operand: "Expr"

    def __str__(self) -> str:
        return f"(-{self.operand})" if self.op is Op.NEG else f"({self.op} {self.operand})"


@dataclass(frozen=True)
class Call(_ExprOps):
    """A call to an intrinsic function (``sin``, ``exp``, ``max`` ...)."""

    func: str
    args: Tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Compare(_ExprOps):
    op: CmpOp
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Logical(_ExprOps):
    op: LogicOp
    operands: Tuple["Expr", ...]

    def __post_init__(self):
        want = 1 if self.op is LogicOp.NOT else 2
        if len(self.operands) != want:
            raise ValueError(f"{self.op} expects {want} operand(s)")

    def __str__(self) -> str:
        if self.op is LogicOp.NOT:
            return f"(.not. {self.operands[0]})"
        return f"({self.operands[0]} {self.op} {self.operands[1]})"


Expr = Const | Var | ArrayRef | BinOp | UnOp | Call | Compare | Logical

#: Intrinsic functions known to the interpreter and the AD engine, with
#: their arity.  ``-1`` means variadic (>= 2).
INTRINSICS: Mapping[str, int] = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "tanh": 1,
    "max": -1,
    "min": -1,
    "mod": 2,
    "int": 1,
    "real": 1,
    "sign": 2,
}


def int_div(a: int, b: int) -> int:
    """Fortran integer division: the quotient truncated toward zero.

    Shared by constant folding, the interpreter's ``/`` and ``mod``;
    raises :class:`ZeroDivisionError` when ``b`` is zero.
    """
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def as_expr(value) -> Expr:
    """Coerce a Python value or expression into an :class:`Expr`."""
    if isinstance(value, (Const, Var, ArrayRef, BinOp, UnOp, Call, Compare, Logical)):
        return value
    if isinstance(value, (int, float, bool)):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to an IR expression")


def children(expr: Expr) -> Tuple[Expr, ...]:
    """Direct sub-expressions of *expr*."""
    if isinstance(expr, (Const, Var)):
        return ()
    if isinstance(expr, ArrayRef):
        return expr.indices
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, UnOp):
        return (expr.operand,)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, Compare):
        return (expr.left, expr.right)
    if isinstance(expr, Logical):
        return expr.operands
    raise TypeError(f"not an expression: {expr!r}")  # pragma: no cover


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and all sub-expressions, pre-order."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))


_NO_NAMES: FrozenSet[str] = frozenset()


def _union(a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
    """``a | b``, returning an operand itself when it already holds the
    other, so nested nodes share their children's sets."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _name_sets(expr: Expr) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(variables, arrays)`` named by *expr*.

    Each node computes its pair once, from its children's pairs, and
    keeps it in ``_names``. The walk runs bottom-up over an explicit
    stack, so no nesting depth can exhaust the interpreter's recursion
    limit, and a later query on any visited node is one attribute read.
    """
    names = expr._names
    if names is not None:
        return names
    stack = [expr]
    while stack:
        node = stack[-1]
        if node._names is not None:
            stack.pop()
            continue
        kids = children(node)
        pending = [k for k in kids if k._names is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, Var):
            names = (frozenset((node.name,)), _NO_NAMES)
        else:
            variables = arrays = _NO_NAMES
            for kid in kids:
                kid_vars, kid_arrays = kid._names
                variables = _union(variables, kid_vars)
                arrays = _union(arrays, kid_arrays)
            if isinstance(node, ArrayRef):
                arrays = _union(arrays, frozenset((node.name,)))
            names = (variables, arrays)
        object.__setattr__(node, "_names", names)
    return expr._names


def variables_in(expr: Expr) -> set[str]:
    """Names of all scalar variables referenced by *expr* (array names
    excluded — use :func:`arrays_in` for those). The set is the
    caller's own: changing it changes no later answer."""
    return set(_name_sets(expr)[0])


def arrays_in(expr: Expr) -> set[str]:
    """Names of all arrays referenced by *expr* (a fresh set)."""
    return set(_name_sets(expr)[1])


def names_in(expr: Expr) -> set[str]:
    """All variable and array names referenced by *expr* (a fresh
    set)."""
    variables, arrays = _name_sets(expr)
    return {*variables, *arrays}


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace scalar variable references by name.

    Only :class:`Var` nodes are substituted; array names are left
    untouched (arrays cannot be renamed via this helper).
    """
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, tuple(substitute(i, mapping) for i in expr.indices))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, substitute(expr.operand, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(substitute(a, mapping) for a in expr.args))
    if isinstance(expr, Compare):
        return Compare(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Logical):
        return Logical(expr.op, tuple(substitute(o, mapping) for o in expr.operands))
    raise TypeError(f"not an expression: {expr!r}")  # pragma: no cover


def rename_arrays(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rename array references by name (used to build adjoint refs)."""
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            mapping.get(expr.name, expr.name),
            tuple(rename_arrays(i, mapping) for i in expr.indices),
        )
    if isinstance(expr, Const) or isinstance(expr, Var):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, rename_arrays(expr.left, mapping), rename_arrays(expr.right, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, rename_arrays(expr.operand, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(rename_arrays(a, mapping) for a in expr.args))
    if isinstance(expr, Compare):
        return Compare(expr.op, rename_arrays(expr.left, mapping), rename_arrays(expr.right, mapping))
    if isinstance(expr, Logical):
        return Logical(expr.op, tuple(rename_arrays(o, mapping) for o in expr.operands))
    raise TypeError(f"not an expression: {expr!r}")  # pragma: no cover


def references_location(expr: Expr, ref: "Var | ArrayRef") -> bool:
    """True if *expr* may read the memory location denoted by *ref*.

    This is the syntactic test used by increment detection: for an
    array reference we require the *same array with identical index
    expressions* to count as "the same location"; any other reference
    to the same array counts as *may* overlap and also returns True
    (conservative).
    """
    variables, arrays = _name_sets(expr)
    return ref.name in (variables if isinstance(ref, Var) else arrays)

