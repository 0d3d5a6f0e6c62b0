"""Normalization of terms into linear forms.

A :class:`LinForm` is ``Σ coeff_i · var_i + const`` with integer
coefficients. Atoms normalize to ``LinForm REL 0`` and then to the
canonical shapes the simplex core consumes (``lhs <= c`` / ``lhs = c``
with the constant moved to the right).

UF applications must be eliminated (see :mod:`repro.smt.ackermann`)
before terms reach this module; encountering one raises.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .terms import (FAtom, NonLinearTermError, Rel, TAdd, TApp, TConst, TMul,
                    Term, TVar, _Interned, _hashcons)


class LinForm(_Interned):
    """An immutable, hash-consed linear form over named integer variables.

    Like the term nodes, LinForms are interned: the canonical constraint
    pipeline (atom → linearize → canonicalize → simplex row lookup)
    rebuilds the same handful of forms thousands of times per loop, so
    structural equality is a pointer comparison and the hash is
    precomputed. ``coeffs`` is sorted by name and zero-free — callers
    constructing ``LinForm`` directly must preserve that invariant (use
    :meth:`from_dict` otherwise).
    """

    __slots__ = ("coeffs", "const", "_hash", "__weakref__")
    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    coeffs: Tuple[Tuple[str, int], ...]  # sorted by name, zero-free
    const: int

    def __new__(cls, coeffs: Tuple[Tuple[str, int], ...], const: int = 0):
        coeffs = tuple(coeffs)
        return _hashcons(cls, (coeffs, const),
                         (("coeffs", coeffs), ("const", const)))

    def _key(self):
        return (self.coeffs, self.const)

    def __repr__(self) -> str:
        return f"LinForm({self.coeffs!r}, {self.const!r})"

    @staticmethod
    def from_dict(coeffs: Mapping[str, int], const: int = 0) -> "LinForm":
        items = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return LinForm(items, const)

    @staticmethod
    def constant(value: int) -> "LinForm":
        return LinForm((), value)

    @staticmethod
    def variable(name: str) -> "LinForm":
        return LinForm(((name, 1),), 0)

    def coeff_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinForm") -> "LinForm":
        coeffs = self.coeff_dict()
        for name, c in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + c
        return LinForm.from_dict(coeffs, self.const + other.const)

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "LinForm":
        if factor == 0:
            return LinForm.constant(0)
        return LinForm(tuple((n, c * factor) for n, c in self.coeffs),
                       self.const * factor)

    def variables(self) -> set[str]:
        return {n for n, _ in self.coeffs}

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return self.const + sum(c * assignment[n] for n, c in self.coeffs)

    def content(self) -> int:
        """GCD of the variable coefficients (0 for constant forms)."""
        from math import gcd
        g = 0
        for _, c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def __str__(self) -> str:
        parts = [f"{c}*{n}" for n, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def linearize(term: Term) -> LinForm:
    """Convert *term* to a linear form. Raises on UF applications and
    nonlinear products (which cannot be built via the term API anyway)."""
    if isinstance(term, TConst):
        return LinForm.constant(term.value)
    if isinstance(term, TVar):
        return LinForm.variable(term.name)
    if isinstance(term, TAdd):
        acc = LinForm.constant(0)
        for t in term.terms:
            acc = acc + linearize(t)
        return acc
    if isinstance(term, TMul):
        return linearize(term.term).scale(term.coeff)
    if isinstance(term, TApp):
        raise NonLinearTermError(
            f"uninterpreted application {term} must be Ackermann-eliminated "
            f"before linearization")
    raise TypeError(f"not a term: {term!r}")  # pragma: no cover


@dataclass(frozen=True)
class Constraint:
    """A canonical theory constraint: ``form <= bound`` or ``form = bound``.

    ``form`` has const 0 (the constant is folded into ``bound``). Strict
    relations are tightened using integrality before reaching this type,
    and GE is flipped into LE, so ``rel`` is only ``LE`` or ``EQ``.
    """

    form: LinForm
    rel: Rel
    bound: int

    def __post_init__(self):
        if self.rel not in (Rel.LE, Rel.EQ):
            raise ValueError(f"canonical constraints are LE or EQ, got {self.rel}")
        if self.form.const != 0:
            raise ValueError("canonical constraint form must have zero constant")

    def holds(self, assignment: Mapping[str, int]) -> bool:
        """Evaluate under *assignment*, reading an absent variable as 0
        (a model omits the variables its solver never constrained)."""
        get = assignment.get
        value = 0
        for name, coeff in self.form.coeffs:
            value += coeff * get(name, 0)
        return value <= self.bound if self.rel is Rel.LE else value == self.bound

    def __str__(self) -> str:
        return f"{self.form} {'<=' if self.rel is Rel.LE else '='} {self.bound}"


class TrivialConstraint(Exception):
    """Signals a constraint with no variables; carries its truth value."""

    def __init__(self, truth: bool) -> None:
        super().__init__(f"trivially {truth}")
        self.truth = truth


def canonicalize(atom: FAtom) -> Tuple[Constraint, ...]:
    """Normalize an atom into canonical constraints (conjunction).

    * ``a <= b``  →  one LE constraint.
    * ``a <  b``  →  ``a <= b - 1`` (integer tightening).
    * ``a >= b``, ``a > b`` → flipped forms of the above.
    * ``a == b``  →  one EQ constraint.
    * ``a != b``  →  **rejected**: disequalities are case-split by the
      search layer before canonicalization.

    Raises :class:`TrivialConstraint` when the atom contains no
    variables; the payload carries its truth value. Coefficient GCD
    reduction tightens LE bounds (``2x <= 3`` → ``x <= 1``) and can
    prove EQ atoms false outright (``2x = 3``).
    """
    diff = linearize(atom.left) - linearize(atom.right)
    rel = atom.rel
    if rel is Rel.GE:
        diff, rel = diff.scale(-1), Rel.LE
    elif rel is Rel.GT:
        diff, rel = diff.scale(-1), Rel.LT
    if rel is Rel.LT:
        diff = diff + LinForm.constant(1)
        rel = Rel.LE
    if rel is Rel.NE:
        raise ValueError("disequalities must be split before canonicalization")

    bound = -diff.const
    form = LinForm(diff.coeffs, 0)
    if form.is_constant:
        raise TrivialConstraint(0 <= bound if rel is Rel.LE else bound == 0)

    g = form.content()
    if g > 1:
        if rel is Rel.LE:
            # Python's // is floor division, which is exactly the integer
            # tightening floor(bound/g) for both signs of the bound.
            form = LinForm(tuple((n, c // g) for n, c in form.coeffs), 0)
            bound = bound // g
        else:
            if bound % g != 0:
                raise TrivialConstraint(False)
            form = LinForm(tuple((n, c // g) for n, c in form.coeffs), 0)
            bound = bound // g
    return (Constraint(form, rel, bound),)
