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
from math import gcd
from typing import Dict, Mapping, Tuple

from .terms import (FAtom, NonLinearTermError, Rel, TAdd, TApp, TConst, TMul,
                    Term, TVar, _Interned, _hashcons)


class LinForm(_Interned):
    """An immutable, hash-consed linear form over named integer variables.

    Like the term nodes, LinForms are interned, so structural equality
    is a pointer comparison and the hash is precomputed: the simplex
    keys its slack rows on forms, and presolve's implicit-equality fold
    keys on their coefficients. Atom canonicalization sums both sides
    into one coefficient dict and interns only the final form, one per
    atom. ``coeffs`` is sorted by name and zero-free — callers
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


def _collect(term: Term, factor: int, coeffs: Dict[str, int]) -> int:
    """Add ``factor · term`` into *coeffs* (zero entries may remain) and
    return its constant part. Raises on UF applications."""
    if isinstance(term, TVar):
        coeffs[term.name] = coeffs.get(term.name, 0) + factor
        return 0
    if isinstance(term, TConst):
        return factor * term.value
    if isinstance(term, TAdd):
        return sum(_collect(t, factor, coeffs) for t in term.terms)
    if isinstance(term, TMul):
        return _collect(term.term, factor * term.coeff, coeffs)
    if isinstance(term, TApp):
        raise NonLinearTermError(
            f"uninterpreted application {term} must be Ackermann-eliminated "
            f"before linearization")
    raise TypeError(f"not a term: {term!r}")  # pragma: no cover


def linearize(term: Term) -> LinForm:
    """Convert *term* to a linear form. Raises on UF applications and
    nonlinear products (which cannot be built via the term API anyway)."""
    coeffs: Dict[str, int] = {}
    const = _collect(term, 1, coeffs)
    return LinForm.from_dict(coeffs, const)


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
    rel = atom.rel
    # Sum ``left - right`` (``right - left`` for GE/GT, which flip into
    # LE/LT) into one dict; only the final form is interned.
    factor = -1 if rel is Rel.GE or rel is Rel.GT else 1
    coeffs: Dict[str, int] = {}
    const = (_collect(atom.left, factor, coeffs)
             + _collect(atom.right, -factor, coeffs))
    if rel is Rel.NE:
        raise ValueError("disequalities must be split before canonicalization")
    if rel is not Rel.EQ:
        if rel is Rel.LT or rel is Rel.GT:
            const += 1  # integer tightening: ``d < 0`` is ``d + 1 <= 0``
        rel = Rel.LE

    bound = -const
    items = sorted((n, c) for n, c in coeffs.items() if c)
    if not items:
        raise TrivialConstraint(0 <= bound if rel is Rel.LE else bound == 0)

    g = gcd(*(c for _, c in items))
    if g > 1:
        if rel is Rel.EQ and bound % g != 0:
            raise TrivialConstraint(False)
        # Exact for EQ; for LE, Python's floor division is exactly the
        # integer tightening floor(bound/g) for both signs of the bound.
        items = [(n, c // g) for n, c in items]
        bound //= g
    return (Constraint(LinForm(tuple(items), 0), rel, bound),)
