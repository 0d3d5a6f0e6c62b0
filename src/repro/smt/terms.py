"""Term and formula language for the SMT solver.

The solver decides **QF_UFLIA**: quantifier-free formulas over linear
integer arithmetic with uninterpreted functions. This is exactly the
fragment the paper's FormAD analysis needs — index expressions are
linear in loop counters and scalars, and data-dependent indirections
(``c(i)``, ``mss(1, ig, k12)``) become uninterpreted function
applications whose only known property is functional consistency.

Terms and formulas are immutable, **hash-consed** nodes: constructing
the same structure twice returns the same object, so

* equality is a pointer comparison (``a is b`` iff structurally equal),
* hashes are computed once at construction and stored in a slot,
* dictionaries keyed on deep trees (per-formula clausification, atom
  canonicalization, Ackermann application interning, the engine's
  exploitation-question memo) probe in O(1) instead of re-walking the
  tree per lookup.

The intern tables are per-class :class:`weakref.WeakValueDictionary`
instances guarded by one module lock, so canonical nodes are shared
across threads but garbage-collected once the last user drops them —
a long ``experiments`` run over many loops does not accumulate every
term it ever built.

The public constructor API is unchanged from the earlier dataclass
implementation: ``TConst(5)``, ``TVar("i")``, ``TAdd((a, b))``,
``TMul(-1, t)``, ``TApp("f", (a,))``, ``FAtom(Rel.EQ, l, r)`` etc.,
with the same attribute names and operator overloading mirroring the
small slice of the Z3 Python API the paper uses.
"""

from __future__ import annotations

import enum
import threading
import weakref
from typing import Iterator, Sequence, Tuple

#: One lock for every intern table: construction is cheap, contention is
#: rare (term building is a small fraction of solve time), and a single
#: lock keeps the invariant trivially audit-able — at most one canonical
#: instance per structure, even when several threads build terms.
_INTERN_LOCK = threading.Lock()


class _Interned:
    """Base for hash-consed nodes: frozen slots, identity equality.

    Subclasses define ``__slots__`` including ``_hash`` and
    ``__weakref__``, a class-level ``_table`` WeakValueDictionary, and a
    ``__new__`` that calls :func:`_hashcons`. Because every constructor
    returns the canonical instance, structural equality *is* identity —
    ``__eq__`` below never walks the tree.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Re-intern on unpickle so identity equality survives transport.
        return (type(self), self._key())


def _hashcons(cls, key, attrs):
    """Return the canonical *cls* instance for *key*, creating it (with
    attribute dict *attrs* plus a precomputed ``_hash``) on first use."""
    table = cls._table
    with _INTERN_LOCK:
        self = table.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in attrs:
                object.__setattr__(self, name, value)
            object.__setattr__(self, "_hash", hash((cls.__name__, key)))
            table[key] = self
        return self


class _TermOps:
    """Operator overloading shared by all integer terms."""

    __slots__ = ()

    def __add__(self, other) -> "TAdd":
        return TAdd((self, as_term(other)))

    def __radd__(self, other) -> "TAdd":
        return TAdd((as_term(other), self))

    def __sub__(self, other) -> "TAdd":
        return TAdd((self, TMul(-1, as_term(other))))

    def __rsub__(self, other) -> "TAdd":
        return TAdd((as_term(other), TMul(-1, self)))

    def __mul__(self, other) -> "TMul":
        if isinstance(other, int):
            return TMul(other, self)
        if isinstance(other, TConst):
            return TMul(other.value, self)
        if isinstance(self, TConst):
            return TMul(self.value, as_term(other))
        raise NonLinearTermError(f"nonlinear product: {self} * {other}")

    def __rmul__(self, other) -> "TMul":
        return self.__mul__(other)

    def __neg__(self) -> "TMul":
        return TMul(-1, self)

    # Comparisons produce formulas (atoms).
    def eq(self, other) -> "FAtom":
        return FAtom(Rel.EQ, self, as_term(other))

    def ne(self, other) -> "FAtom":
        return FAtom(Rel.NE, self, as_term(other))

    def le(self, other) -> "FAtom":
        return FAtom(Rel.LE, self, as_term(other))

    def lt(self, other) -> "FAtom":
        return FAtom(Rel.LT, self, as_term(other))

    def ge(self, other) -> "FAtom":
        return FAtom(Rel.GE, self, as_term(other))

    def gt(self, other) -> "FAtom":
        return FAtom(Rel.GT, self, as_term(other))


class NonLinearTermError(TypeError):
    """Raised when a term falls outside linear integer arithmetic."""


class TConst(_TermOps, _Interned):
    """An integer literal."""

    __slots__ = ("value", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"TConst needs an int, got {value!r}")
        return _hashcons(cls, value, (("value", value),))

    def _key(self):
        return (self.value,)

    def __repr__(self) -> str:
        return f"TConst({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class TVar(_TermOps, _Interned):
    """An integer variable."""

    __slots__ = ("name", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, name: str):
        if not name:
            raise ValueError("empty variable name")
        return _hashcons(cls, name, (("name", name),))

    def _key(self):
        return (self.name,)

    def __repr__(self) -> str:
        return f"TVar({self.name!r})"

    def __str__(self) -> str:
        return self.name


class TAdd(_TermOps, _Interned):
    """A sum of terms."""

    __slots__ = ("terms", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, terms: Tuple["Term", ...]):
        terms = tuple(terms)
        return _hashcons(cls, terms, (("terms", terms),))

    def _key(self):
        return (self.terms,)

    def __repr__(self) -> str:
        return f"TAdd({self.terms!r})"

    def __str__(self) -> str:
        return "(" + " + ".join(map(str, self.terms)) + ")"


class TMul(_TermOps, _Interned):
    """An integer constant times a term (keeps everything linear)."""

    __slots__ = ("coeff", "term", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, coeff: int, term: "Term"):
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise TypeError(f"TMul coefficient must be int, got {coeff!r}")
        return _hashcons(cls, (coeff, term),
                         (("coeff", coeff), ("term", term)))

    def _key(self):
        return (self.coeff, self.term)

    def __repr__(self) -> str:
        return f"TMul({self.coeff!r}, {self.term!r})"

    def __str__(self) -> str:
        return f"{self.coeff}*{self.term}"


class TApp(_TermOps, _Interned):
    """An uninterpreted function application ``f(arg_1, ..., arg_n)``.

    Functions are identified by name and arity; applying the same name
    with different arities is an error caught at solve time.
    """

    __slots__ = ("func", "args", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, func: str, args: Tuple["Term", ...]):
        if not func:
            raise ValueError("empty function name")
        args = tuple(args)
        if not args:
            raise ValueError("TApp needs at least one argument")
        return _hashcons(cls, (func, args),
                         (("func", func), ("args", args)))

    def _key(self):
        return (self.func, self.args)

    def __repr__(self) -> str:
        return f"TApp({self.func!r}, {self.args!r})"

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


Term = TConst | TVar | TAdd | TMul | TApp


def Int(name: str) -> TVar:
    """Z3-style constructor for an integer variable."""
    return TVar(name)


def as_term(value) -> Term:
    if isinstance(value, (TConst, TVar, TAdd, TMul, TApp)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return TConst(value)
    raise TypeError(f"cannot convert {value!r} to an SMT term")


def term_children(term: Term) -> Tuple[Term, ...]:
    if isinstance(term, (TConst, TVar)):
        return ()
    if isinstance(term, TAdd):
        return term.terms
    if isinstance(term, TMul):
        return (term.term,)
    if isinstance(term, TApp):
        return term.args
    raise TypeError(f"not a term: {term!r}")  # pragma: no cover


def walk_term(term: Term) -> Iterator[Term]:
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(term_children(t))


def term_vars(term: Term) -> set[str]:
    return {t.name for t in walk_term(term) if isinstance(t, TVar)}


def term_apps(term: Term) -> list[TApp]:
    """All UF applications in *term*, innermost included."""
    return [t for t in walk_term(term) if isinstance(t, TApp)]


# ----------------------------------------------------------------------
# Formulas
# ----------------------------------------------------------------------


class Rel(enum.Enum):
    EQ = "="
    NE = "!="
    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"

    def negate(self) -> "Rel":
        return {
            Rel.EQ: Rel.NE, Rel.NE: Rel.EQ,
            Rel.LE: Rel.GT, Rel.GT: Rel.LE,
            Rel.LT: Rel.GE, Rel.GE: Rel.LT,
        }[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class FAtom(_Interned):
    """An atomic constraint ``left REL right``."""

    __slots__ = ("rel", "left", "right", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, rel: Rel, left: Term, right: Term):
        return _hashcons(cls, (rel, left, right),
                         (("rel", rel), ("left", left), ("right", right)))

    def _key(self):
        return (self.rel, self.left, self.right)

    def __repr__(self) -> str:
        return f"FAtom({self.rel!r}, {self.left!r}, {self.right!r})"

    def __str__(self) -> str:
        return f"({self.left} {self.rel} {self.right})"


class FAnd(_Interned):
    __slots__ = ("operands", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, operands: Tuple["Formula", ...]):
        operands = tuple(operands)
        return _hashcons(cls, operands, (("operands", operands),))

    def _key(self):
        return (self.operands,)

    def __repr__(self) -> str:
        return f"FAnd({self.operands!r})"

    def __str__(self) -> str:
        return "(and " + " ".join(map(str, self.operands)) + ")"


class FOr(_Interned):
    __slots__ = ("operands", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, operands: Tuple["Formula", ...]):
        operands = tuple(operands)
        return _hashcons(cls, operands, (("operands", operands),))

    def _key(self):
        return (self.operands,)

    def __repr__(self) -> str:
        return f"FOr({self.operands!r})"

    def __str__(self) -> str:
        return "(or " + " ".join(map(str, self.operands)) + ")"


class FNot(_Interned):
    __slots__ = ("operand", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, operand: "Formula"):
        return _hashcons(cls, operand, (("operand", operand),))

    def _key(self):
        return (self.operand,)

    def __repr__(self) -> str:
        return f"FNot({self.operand!r})"

    def __str__(self) -> str:
        return f"(not {self.operand})"


class FTrue(_Interned):
    __slots__ = ("_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls):
        return _hashcons(cls, (), ())

    def _key(self):
        return ()

    def __repr__(self) -> str:
        return "FTrue()"

    def __str__(self) -> str:
        return "true"


class FFalse(_Interned):
    __slots__ = ("_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls):
        return _hashcons(cls, (), ())

    def _key(self):
        return ()

    def __repr__(self) -> str:
        return "FFalse()"

    def __str__(self) -> str:
        return "false"


Formula = FAtom | FAnd | FOr | FNot | FTrue | FFalse

TRUE = FTrue()
FALSE = FFalse()


def And(*operands: Formula) -> Formula:
    ops = _flatten(operands, FAnd)
    if any(isinstance(o, FFalse) for o in ops):
        return FALSE
    ops = tuple(o for o in ops if not isinstance(o, FTrue))
    if not ops:
        return TRUE
    if len(ops) == 1:
        return ops[0]
    return FAnd(ops)


def Or(*operands: Formula) -> Formula:
    ops = _flatten(operands, FOr)
    if any(isinstance(o, FTrue) for o in ops):
        return TRUE
    ops = tuple(o for o in ops if not isinstance(o, FFalse))
    if not ops:
        return FALSE
    if len(ops) == 1:
        return ops[0]
    return FOr(ops)


def Not(operand: Formula) -> Formula:
    if isinstance(operand, FTrue):
        return FALSE
    if isinstance(operand, FFalse):
        return TRUE
    if isinstance(operand, FNot):
        return operand.operand
    return FNot(operand)


def _flatten(operands: Sequence[Formula], cls) -> Tuple[Formula, ...]:
    out: list[Formula] = []
    for op in operands:
        if isinstance(op, cls):
            out.extend(op.operands)
        else:
            out.append(op)
    return tuple(out)


def formula_atoms(formula: Formula) -> list[FAtom]:
    """All atoms in a formula, in syntactic order."""
    out: list[FAtom] = []
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, FAtom):
            out.append(f)
        elif isinstance(f, (FAnd, FOr)):
            stack.extend(reversed(f.operands))
        elif isinstance(f, FNot):
            stack.append(f.operand)
    return out


def formula_vars(formula: Formula) -> set[str]:
    names: set[str] = set()
    for atom in formula_atoms(formula):
        names |= term_vars(atom.left) | term_vars(atom.right)
    return names


def formula_apps(formula: Formula) -> list[TApp]:
    apps: list[TApp] = []
    for atom in formula_atoms(formula):
        apps.extend(term_apps(atom.left))
        apps.extend(term_apps(atom.right))
    return apps
