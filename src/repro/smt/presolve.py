"""Integer presolve: equality elimination + divisibility tests.

Branch & bound alone diverges on parity-style systems such as
``i = 2k ∧ i' = 2k' ∧ i' = i - 1`` (the LP stays feasible at every
node). Eliminating equalities with a ±1-coefficient variable by exact
substitution, then re-canonicalizing (which applies the GCD
divisibility test), decides such systems outright and shrinks what the
simplex sees.

Substitution of a variable with a ±1 coefficient is exact over ℤ, so
the transformed system is *equisatisfiable* and eliminated variables
can be reconstructed from any model of the reduced system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .linform import Constraint, LinForm, TrivialConstraint
from .terms import Rel


class PresolveInfeasible(Exception):
    """The presolve proved the conjunction unsatisfiable."""


#: Outcomes of :func:`literal_status`.
INFEASIBLE, ENTAILED, KEPT = "infeasible", "entailed", "kept"


@dataclass
class Substitution:
    """``var = form`` discovered by eliminating an equality."""

    var: str
    form: LinForm


@dataclass
class PresolveResult:
    constraints: List[Constraint]
    substitutions: List[Substitution] = field(default_factory=list)

    def reconstruct(self, model: Dict[str, int]) -> Dict[str, int]:
        """Extend a model of the reduced system to the original vars."""
        full = dict(model)
        for sub in reversed(self.substitutions):
            for name in sub.form.variables():
                full.setdefault(name, 0)
            full[sub.var] = sub.form.evaluate(full)
        return full


def _substitute_coeffs(coeffs: Dict[str, int], rel: Rel, bound: int,
                       var: str, form: LinForm) -> Optional[int]:
    """The substitution core: replace *var* (a key of *coeffs*) by *form*
    in ``coeffs·x REL bound``, updating *coeffs* in place.

    Returns the new bound, or None if the constraint became trivial (and
    true). Raises :class:`PresolveInfeasible` if trivially false. A
    non-trivial result is GCD-tightened: an EQ with a bound the content
    does not divide is infeasible, an LE bound is floored.
    """
    c = coeffs.pop(var)
    for name, k in form.coeffs:
        value = coeffs.get(name, 0) + c * k
        if value:
            coeffs[name] = value
        else:
            del coeffs[name]  # c·k != 0, so a zero sum had a term here
    # `form` may carry a constant; fold it into the bound.
    bound -= c * form.const
    if not coeffs:
        if (0 <= bound) if rel is Rel.LE else (bound == 0):
            return None
        raise PresolveInfeasible(f"0 {rel.value} {bound}")
    g = gcd(*coeffs.values())
    if g > 1:
        if rel is Rel.EQ and bound % g != 0:
            raise PresolveInfeasible(f"content {g} does not divide {bound}")
        for name in coeffs:
            coeffs[name] //= g
        bound //= g  # exact for EQ; the floor tightening for LE
    return bound


def _reduce(constraint: Constraint, substitutions: Sequence[Substitution]
            ) -> Optional[Tuple[Dict[str, int], int]]:
    """Apply a substitution chain to *constraint* on a plain coefficient
    dict, building no :class:`LinForm` on the way.

    Returns ``(coeffs, bound)`` of the reduced constraint, or None when
    it reduced to a trivially true statement. Raises
    :class:`PresolveInfeasible` when it reduced to a trivially false one.
    """
    coeffs = dict(constraint.form.coeffs)
    bound = constraint.bound
    for sub in substitutions:
        if sub.var in coeffs:
            bound = _substitute_coeffs(coeffs, constraint.rel, bound,
                                       sub.var, sub.form)
            if bound is None:
                return None
    return coeffs, bound


def _substitute(constraint: Constraint, var: str, form: LinForm) -> Optional[Constraint]:
    """Replace *var* by *form* in *constraint*; None if it became trivial
    (and true). Raises :class:`PresolveInfeasible` if trivially false."""
    coeffs = constraint.form.coeff_dict()
    if var not in coeffs:
        return constraint
    bound = _substitute_coeffs(coeffs, constraint.rel, constraint.bound,
                               var, form)
    if bound is None:
        return None
    return Constraint(LinForm.from_dict(coeffs), constraint.rel, bound)


def _find_unit_equality(constraints: Sequence[Constraint]) -> Optional[Tuple[int, str, int]]:
    """Index, variable, and coefficient (±1) of an eliminable equality."""
    for idx, c in enumerate(constraints):
        if c.rel is not Rel.EQ:
            continue
        for name, coeff in c.form.coeffs:
            if coeff in (1, -1):
                return idx, name, coeff
    return None


def _mod_hat(a: int, m: int) -> int:
    """Pugh's symmetric modulus: the representative of ``a mod m`` in
    ``(-m/2, m/2]``."""
    r = a % m  # Python: in [0, m)
    if 2 * r > m:
        r -= m
    return r


def _omega_eliminate(eq: Constraint, fresh: "_FreshNames") -> Tuple[str, LinForm, Constraint]:
    """One step of the Omega-test equality reduction (Pugh, 1991).

    For ``Σ a_i x_i = c`` with no ±1 coefficient (and gcd 1), pick the
    variable ``x_k`` with the smallest ``|a_k|``, set ``m = |a_k| + 1``,
    introduce a fresh variable ``σ`` defined by

        m·σ = Σ_i mod̂(a_i, m)·x_i - mod̂(c, m)·1      (*)

    Because ``mod̂(a_k, m) = -sign(a_k)``, (*) can be solved exactly for
    ``x_k``; substituting back into the equality shrinks ``|a_k|`` so the
    process terminates with a unit coefficient. Returns the eliminated
    variable, its defining form (over the others plus σ), and the
    replacement equality.
    """
    coeffs = dict(eq.form.coeffs)
    c = eq.bound
    k = min(coeffs, key=lambda n: (abs(coeffs[n]), n))
    a_k = coeffs[k]
    sign = 1 if a_k > 0 else -1
    m = abs(a_k) + 1
    sigma = fresh.next()
    # Taking the equality mod m: Σ mod̂(a_i,m)·x_i = mod̂(c,m) + m·σ for
    # some integer σ, and mod̂(a_k,m) = -sign(a_k), hence
    #   x_k = sign·(Σ_{i≠k} mod̂(a_i,m)·x_i - mod̂(c,m) - m·σ).
    xk_coeffs = {sigma: -sign * m}
    xk_const = -sign * _mod_hat(c, m)
    for name, a in coeffs.items():
        if name != k:
            xk_coeffs[name] = sign * _mod_hat(a, m)
    xk_form = LinForm.from_dict(xk_coeffs, xk_const)
    # Substitute into the original equality to get the reduced equality.
    reduced = _substitute(eq, k, xk_form)
    if reduced is None:
        # The equality became trivially true; σ is then only constrained
        # through other constraints mentioning x_k.
        reduced_eq = None
    else:
        reduced_eq = reduced
    return k, xk_form, reduced_eq


class _FreshNames:
    def __init__(self) -> None:
        self._n = 0

    def next(self) -> str:
        self._n += 1
        return f"!sigma{self._n}"


def _detect_implicit_equalities(work: List[Constraint]) -> List[Constraint]:
    """Fold opposing LE pairs (``f <= b`` and ``-f <= -b``) into EQs so
    the equality machinery can eliminate them (prevents branch & bound
    from wandering on implicit equalities)."""
    le_bounds: Dict[Tuple[Tuple[str, int], ...], int] = {}
    for c in work:
        if c.rel is Rel.LE:
            prev = le_bounds.get(c.form.coeffs)
            if prev is None or c.bound < prev:
                le_bounds[c.form.coeffs] = c.bound
    out: List[Constraint] = []
    promoted: set[Tuple[Tuple[str, int], ...]] = set()
    for c in work:
        if c.rel is Rel.LE:
            neg = c.form.scale(-1).coeffs
            opp = le_bounds.get(neg)
            if opp is not None and opp == -c.bound:
                key = min(c.form.coeffs, neg)
                if key not in promoted:
                    promoted.add(key)
                    form = LinForm(key, 0)
                    bound = c.bound if key == c.form.coeffs else -c.bound
                    out.append(Constraint(form, Rel.EQ, bound))
                continue  # both sides replaced by the single equality
        out.append(c)
    return out


class ConstraintEntailed(Exception):
    """Signals that a reduced constraint is trivially true."""


def reduce_constraint(
    constraint: Constraint, substitutions: Sequence[Substitution]
) -> Constraint:
    """Apply a presolve substitution chain to one constraint.

    Raises :class:`PresolveInfeasible` if the constraint reduces to a
    trivially false statement and :class:`ConstraintEntailed` if it
    reduces to a trivially true one. For callers that need the reduced
    constraint itself; the clause filter needs only the outcome and
    calls :func:`literal_status`, which shares the arithmetic.
    """
    reduced = _reduce(constraint, substitutions)
    if reduced is None:
        raise ConstraintEntailed()
    coeffs, bound = reduced
    return Constraint(LinForm.from_dict(coeffs), constraint.rel, bound)


def literal_status(constraint: Constraint,
                   substitutions: Sequence[Substitution]) -> str:
    """What a substitution chain makes of one clause literal's
    constraint: :data:`INFEASIBLE`, :data:`ENTAILED` or :data:`KEPT`.
    The clause filter needs only this outcome, never the reduced
    constraint, so nothing is built beyond a coefficient dict."""
    try:
        reduced = _reduce(constraint, substitutions)
    except PresolveInfeasible:
        return INFEASIBLE
    return ENTAILED if reduced is None else KEPT


def presolve(constraints: Sequence[Constraint], *, max_rounds: int = 10_000) -> PresolveResult:
    """Eliminate all equalities (unit substitution + Omega reduction);
    apply GCD tests; fold implicit equalities.

    After presolve the remaining constraints are inequalities only.
    Raises :class:`PresolveInfeasible` when a contradiction is found.
    """
    work = _detect_implicit_equalities(list(constraints))
    subs: List[Substitution] = []
    fresh = _FreshNames()
    for _ in range(max_rounds):
        found = _find_unit_equality(work)
        if found is not None:
            idx, var, coeff = found
            eq = work.pop(idx)
            # coeff*var + rest = bound  =>  var = (bound - rest) / coeff
            rest = LinForm.from_dict(
                {n: c for n, c in eq.form.coeffs if n != var})
            form = (LinForm.constant(eq.bound) - rest).scale(1 if coeff == 1 else -1)
            subs.append(Substitution(var, form))
            new_work: List[Constraint] = []
            for c in work:
                replaced = _substitute(c, var, form)
                if replaced is not None:
                    new_work.append(replaced)
            work = new_work
            continue
        # No unit-coefficient equality left; reduce a non-unit one.
        eq_idx = next((i for i, c in enumerate(work) if c.rel is Rel.EQ), None)
        if eq_idx is None:
            break
        eq = work.pop(eq_idx)
        var, form, reduced_eq = _omega_eliminate(eq, fresh)
        subs.append(Substitution(var, form))
        new_work = []
        if reduced_eq is not None:
            new_work.append(reduced_eq)
        for c in work:
            replaced = _substitute(c, var, form)
            if replaced is not None:
                new_work.append(replaced)
        work = new_work
    return PresolveResult(work, subs)
