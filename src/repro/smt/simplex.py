"""General simplex for linear rational arithmetic.

Implements the solver of Dutertre & de Moura ("A fast linear-arithmetic
solver for DPLL(T)", CAV 2006): every constraint ``Σ a_i x_i ⋈ c``
introduces a *slack* variable ``s = Σ a_i x_i`` constrained only by
bounds; the tableau keeps basic variables expressed over nonbasic ones,
and ``check`` pivots (Bland's rule, so termination is guaranteed) until
either all basic variables sit within their bounds (SAT, with a rational
model) or some row proves a bound conflict (UNSAT).

Two interchangeable engines share the API and — by construction — the
exact pivot sequence:

* :class:`FractionSimplexSolver` — the original sparse engine: rows are
  ``{nonbasic id: Fraction}`` dicts, every cell op a Python-level
  ``Fraction`` call. Kept as the no-numpy fallback and as the parity
  oracle for the vectorized engine's tests.
* :class:`DenseSimplexSolver` — rows are dense numpy ``int64`` arrays of
  *normalized integer* numerators with one positive integer denominator
  per row, so a pivot substitution is two vectorized integer axpys plus
  a ``np.gcd.reduce`` renormalization instead of a per-cell dict walk.
  When a row update could overflow 64-bit intermediates the row is
  promoted to an ``object``-dtype array of exact Python ints (the
  exact-arithmetic fallback), so results are *always* exact — the dense
  engine is a speedup, never an approximation.

Pivot parity holds because every choice Bland's rule makes depends only
on coefficient *signs* and sorted variable ids: the dense engine stores
``num/den`` with ``den > 0``, so signs agree with the Fraction engine
exactly, ``np.nonzero`` enumerates candidate ids in the same ascending
order ``sorted(dict)`` does, and all value updates are exact rationals.

``SimplexSolver`` names the best available engine. This module decides
*conjunctions* over the rationals; integrality is layered on top by
:mod:`repro.smt.intsolver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None

from .linform import Constraint, LinForm
from .terms import Rel

#: Bounds use None for ±infinity.
Bound = Optional[Fraction]

#: Magnitude ceiling for int64 row intermediates: a substitution computes
#: ``o_num * n_den + o_num[e] * n_num``, so we require the *predicted*
#: worst-case magnitude to stay below 2**62 (one bit of slack under the
#: int64 limit) before running it vectorized; otherwise the operand rows
#: are promoted to exact Python-int (object dtype) arrays first.
_INT64_SAFE = 1 << 62


class ResourceError(RuntimeError):
    """A solver resource budget (pivots, branch nodes) was exhausted."""


@dataclass
class _VarState:
    name: str            # problem-variable name, or "!s<k>" for slacks
    lower: Bound = None
    upper: Bound = None
    value: Fraction = Fraction(0)


class FractionSimplexSolver:
    """The original sparse ``Fraction``-dict engine (parity oracle).

    Usage: construct, :meth:`assert_constraint` each constraint (may
    raise nothing — conflicts are found by :meth:`check`), then
    :meth:`check`, then :meth:`model` if SAT.
    """

    def __init__(self) -> None:
        self._vars: List[_VarState] = []
        self._ids: Dict[str, int] = {}
        # rows: basic var id -> {nonbasic var id: coeff}
        self._rows: Dict[int, Dict[int, Fraction]] = {}
        self._basic_of_form: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self._infeasible = False
        #: pivots performed by check() on *this instance* (copies start
        #: at zero); pivot_log records (basic, entering) per pivot so
        #: tests can assert pivot-for-pivot engine equivalence.
        self.pivots = 0
        self.pivot_log: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Variable and slack management
    # ------------------------------------------------------------------
    def _var_id(self, name: str) -> int:
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._vars)
            self._vars.append(_VarState(name))
            self._ids[name] = vid
        return vid

    def _slack_for(self, form: LinForm) -> int:
        """Return the id of the variable representing *form*.

        Single-variable unit forms reuse the problem variable directly;
        anything else gets (or reuses) a slack with a tableau row.
        """
        if len(form.coeffs) == 1 and form.coeffs[0][1] == 1:
            return self._var_id(form.coeffs[0][0])
        key = form.coeffs
        sid = self._basic_of_form.get(key)
        if sid is not None:
            return sid
        sid = len(self._vars)
        self._vars.append(_VarState(f"!slk!{sid}"))
        row: Dict[int, Fraction] = {}
        value = Fraction(0)
        for name, coeff in form.coeffs:
            vid = self._var_id(name)
            contribution = Fraction(coeff)
            if vid in self._rows:
                # The variable is itself basic: substitute its row.
                for nid, c in self._rows[vid].items():
                    row[nid] = row.get(nid, Fraction(0)) + contribution * c
            else:
                row[vid] = row.get(vid, Fraction(0)) + contribution
            value += contribution * self._vars[vid].value
        row = {k: v for k, v in row.items() if v != 0}
        self._rows[sid] = row
        self._vars[sid].value = self._row_value(sid)
        self._basic_of_form[key] = sid
        return sid

    def _row_value(self, basic: int) -> Fraction:
        return sum((c * self._vars[nid].value for nid, c in self._rows[basic].items()),
                   Fraction(0))

    # ------------------------------------------------------------------
    # Constraint assertion
    # ------------------------------------------------------------------
    def assert_constraint(self, constraint: Constraint) -> None:
        """Install the bound(s) implied by a canonical constraint."""
        vid = self._slack_for(constraint.form)
        bound = Fraction(constraint.bound)
        if constraint.rel is Rel.LE:
            self._tighten_upper(vid, bound)
        else:  # EQ
            self._tighten_upper(vid, bound)
            self._tighten_lower(vid, bound)

    def assert_lower(self, name_or_form: str | LinForm, bound: int | Fraction) -> None:
        vid = (self._var_id(name_or_form) if isinstance(name_or_form, str)
               else self._slack_for(name_or_form))
        self._tighten_lower(vid, Fraction(bound))

    def assert_upper(self, name_or_form: str | LinForm, bound: int | Fraction) -> None:
        vid = (self._var_id(name_or_form) if isinstance(name_or_form, str)
               else self._slack_for(name_or_form))
        self._tighten_upper(vid, Fraction(bound))

    def _tighten_upper(self, vid: int, bound: Fraction) -> None:
        var = self._vars[vid]
        if var.upper is None or bound < var.upper:
            var.upper = bound
        if var.lower is not None and var.upper < var.lower:
            self._infeasible = True
            return
        if vid not in self._rows and var.value > var.upper:
            self._update_nonbasic(vid, var.upper)

    def _tighten_lower(self, vid: int, bound: Fraction) -> None:
        var = self._vars[vid]
        if var.lower is None or bound > var.lower:
            var.lower = bound
        if var.upper is not None and var.upper < var.lower:
            self._infeasible = True
            return
        if vid not in self._rows and var.value < var.lower:
            self._update_nonbasic(vid, var.lower)

    def _update_nonbasic(self, vid: int, value: Fraction) -> None:
        """Set a nonbasic variable's value, updating all basic values."""
        delta = value - self._vars[vid].value
        if delta == 0:
            return
        self._vars[vid].value = value
        for basic, row in self._rows.items():
            coeff = row.get(vid)
            if coeff:
                self._vars[basic].value += coeff * delta

    # ------------------------------------------------------------------
    # The check loop
    # ------------------------------------------------------------------
    def check(self, max_pivots: int = 100_000) -> bool:
        """Pivot to feasibility. True = SAT, False = UNSAT.

        Raises :class:`ResourceError` if the pivot budget is exhausted
        (cannot happen with Bland's rule unless the budget is set below
        the finite pivot bound, but callers may pass small budgets).
        """
        if self._infeasible:
            return False
        pivots = 0
        while True:
            violating = self._find_violating_basic()
            if violating is None:
                return True
            basic, need_increase = violating
            entering = self._find_entering(basic, need_increase)
            if entering is None:
                return False
            self._pivot(basic, entering, need_increase)
            pivots += 1
            if pivots > max_pivots:
                raise ResourceError(f"simplex exceeded {max_pivots} pivots")

    def _find_violating_basic(self) -> Optional[Tuple[int, bool]]:
        # Bland's rule: smallest id first.
        for basic in sorted(self._rows):
            var = self._vars[basic]
            if var.lower is not None and var.value < var.lower:
                return basic, True
            if var.upper is not None and var.value > var.upper:
                return basic, False
        return None

    def _find_entering(self, basic: int, need_increase: bool) -> Optional[int]:
        """Find a nonbasic variable whose movement can fix *basic*."""
        row = self._rows[basic]
        for nid in sorted(row):
            coeff = row[nid]
            var = self._vars[nid]
            if need_increase:
                # basic must increase: raise nid if coeff>0 (and nid has
                # headroom above), or lower nid if coeff<0.
                if coeff > 0 and (var.upper is None or var.value < var.upper):
                    return nid
                if coeff < 0 and (var.lower is None or var.value > var.lower):
                    return nid
            else:
                if coeff > 0 and (var.lower is None or var.value > var.lower):
                    return nid
                if coeff < 0 and (var.upper is None or var.value < var.upper):
                    return nid
        return None

    def _pivot(self, basic: int, entering: int, need_increase: bool) -> None:
        """Swap *basic* and *entering*; move basic exactly to its bound."""
        self.pivots += 1
        self.pivot_log.append((basic, entering))
        var_b = self._vars[basic]
        target = var_b.lower if need_increase else var_b.upper
        assert target is not None
        row = self._rows.pop(basic)
        a = row[entering]
        # basic = Σ c_j x_j  ⇒  entering = (basic - Σ_{j≠e} c_j x_j) / a
        new_row: Dict[int, Fraction] = {basic: Fraction(1) / a}
        for nid, c in row.items():
            if nid != entering:
                new_row[nid] = -c / a
        # Substitute into every other row that mentions `entering`.
        for other, orow in self._rows.items():
            coeff = orow.pop(entering, None)
            if coeff:
                for nid, c in new_row.items():
                    orow[nid] = orow.get(nid, Fraction(0)) + coeff * c
                    if orow[nid] == 0:
                        del orow[nid]
        self._rows[entering] = {k: v for k, v in new_row.items() if v != 0}
        # Update values: basic moves to its violated bound; entering
        # absorbs the difference; dependent basics get recomputed.
        delta_basic = target - var_b.value
        var_b.value = target
        self._vars[entering].value += delta_basic / a
        for other in self._rows:
            if other != entering:
                self._vars[other].value = self._row_value(other)

    # ------------------------------------------------------------------
    def model(self) -> Dict[str, Fraction]:
        """Rational values for all problem variables (slacks excluded)."""
        return {v.name: v.value for v in self._vars if not v.name.startswith("!slk!")}

    def copy(self) -> "FractionSimplexSolver":
        dup = FractionSimplexSolver()
        dup._vars = [_VarState(v.name, v.lower, v.upper, v.value) for v in self._vars]
        dup._ids = dict(self._ids)
        dup._rows = {b: dict(r) for b, r in self._rows.items()}
        dup._basic_of_form = dict(self._basic_of_form)
        dup._infeasible = self._infeasible
        return dup


class _Row:
    """One dense tableau row: integer numerators over one denominator.

    ``num[j] / den`` is the coefficient of variable id ``j``; ``den`` is
    always positive and the entries share no common factor with it
    (renormalized after every update), so coefficient *signs* are the
    signs of ``num`` and Bland's rule reads them without division.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den: int) -> None:
        self.num = num
        self.den = den

    def width(self) -> int:
        return len(self.num)

    def pad(self, n: int) -> None:
        if len(self.num) < n:
            extra = _np.zeros(n - len(self.num), dtype=self.num.dtype)
            self.num = _np.concatenate([self.num, extra])

    def coeff_num(self, vid: int) -> int:
        return int(self.num[vid]) if vid < len(self.num) else 0

    def coeff(self, vid: int) -> Fraction:
        return Fraction(self.coeff_num(vid), self.den)

    def promote(self) -> None:
        """Switch to exact Python-int (object dtype) arithmetic."""
        if self.num.dtype != object:
            self.num = self.num.astype(object)

    def max_abs(self) -> int:
        if not len(self.num):
            return 0
        return int(_np.abs(self.num).max())

    def nonzero_ids(self) -> Iterator[int]:
        """Ascending ids with nonzero coefficient (Bland order)."""
        return (int(i) for i in _np.nonzero(self.num)[0])

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        den = self.den
        for i in _np.nonzero(self.num)[0]:
            yield int(i), Fraction(int(self.num[i]), den)

    def normalize(self) -> None:
        num, den = self.num, self.den
        if num.dtype == object:
            g = 0
            for i in _np.nonzero(num)[0]:
                g = gcd(g, abs(int(num[i])))
                if g == 1:
                    break
        else:
            g = int(_np.gcd.reduce(_np.abs(num))) if len(num) else 0
        g = gcd(g, den)
        if g > 1:
            self.num = num // g
            self.den = den // g

    def copy(self) -> "_Row":
        return _Row(self.num.copy(), self.den)


class DenseSimplexSolver:
    """Vectorized engine: dense normalized-integer rows, exact always.

    Same public API and pivot sequence as
    :class:`FractionSimplexSolver`; see the module docstring for the
    parity argument and the overflow-promotion rule.
    """

    def __init__(self) -> None:
        self._vars: List[_VarState] = []
        self._ids: Dict[str, int] = {}
        self._rows: Dict[int, _Row] = {}
        self._basic_of_form: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self._infeasible = False
        self.pivots = 0
        self.pivot_log: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Variable and slack management
    # ------------------------------------------------------------------
    def _var_id(self, name: str) -> int:
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._vars)
            self._vars.append(_VarState(name))
            self._ids[name] = vid
        return vid

    def _slack_for(self, form: LinForm) -> int:
        """Identical id-assignment order to the Fraction engine (slack
        id first, then any new problem variables), so Bland's rule sees
        the same variable numbering in both engines."""
        if len(form.coeffs) == 1 and form.coeffs[0][1] == 1:
            return self._var_id(form.coeffs[0][0])
        key = form.coeffs
        sid = self._basic_of_form.get(key)
        if sid is not None:
            return sid
        sid = len(self._vars)
        self._vars.append(_VarState(f"!slk!{sid}"))
        acc: Dict[int, Fraction] = {}
        value = Fraction(0)
        for name, coeff in form.coeffs:
            vid = self._var_id(name)
            contribution = Fraction(coeff)
            if vid in self._rows:
                # The variable is itself basic: substitute its row.
                for nid, c in self._rows[vid].items():
                    acc[nid] = acc.get(nid, Fraction(0)) + contribution * c
            else:
                acc[vid] = acc.get(vid, Fraction(0)) + contribution
            value += contribution * self._vars[vid].value
        self._rows[sid] = self._densify(acc)
        self._vars[sid].value = value
        self._basic_of_form[key] = sid
        return sid

    def _densify(self, acc: Dict[int, Fraction]) -> _Row:
        """Convert a sparse Fraction accumulator to a normalized row."""
        den = 1
        for c in acc.values():
            den = lcm(den, c.denominator)
        width = len(self._vars)
        big = den >= _INT64_SAFE or any(
            abs(c.numerator * (den // c.denominator)) >= _INT64_SAFE
            for c in acc.values())
        num = _np.zeros(width, dtype=object if big else _np.int64)
        for vid, c in acc.items():
            if c:
                num[vid] = c.numerator * (den // c.denominator)
        row = _Row(num, den)
        row.normalize()
        return row

    # ------------------------------------------------------------------
    # Constraint assertion
    # ------------------------------------------------------------------
    def assert_constraint(self, constraint: Constraint) -> None:
        """Install the bound(s) implied by a canonical constraint."""
        vid = self._slack_for(constraint.form)
        bound = Fraction(constraint.bound)
        if constraint.rel is Rel.LE:
            self._tighten_upper(vid, bound)
        else:  # EQ
            self._tighten_upper(vid, bound)
            self._tighten_lower(vid, bound)

    def assert_lower(self, name_or_form: str | LinForm, bound: int | Fraction) -> None:
        vid = (self._var_id(name_or_form) if isinstance(name_or_form, str)
               else self._slack_for(name_or_form))
        self._tighten_lower(vid, Fraction(bound))

    def assert_upper(self, name_or_form: str | LinForm, bound: int | Fraction) -> None:
        vid = (self._var_id(name_or_form) if isinstance(name_or_form, str)
               else self._slack_for(name_or_form))
        self._tighten_upper(vid, Fraction(bound))

    def _tighten_upper(self, vid: int, bound: Fraction) -> None:
        var = self._vars[vid]
        if var.upper is None or bound < var.upper:
            var.upper = bound
        if var.lower is not None and var.upper < var.lower:
            self._infeasible = True
            return
        if vid not in self._rows and var.value > var.upper:
            self._update_nonbasic(vid, var.upper)

    def _tighten_lower(self, vid: int, bound: Fraction) -> None:
        var = self._vars[vid]
        if var.lower is None or bound > var.lower:
            var.lower = bound
        if var.upper is not None and var.upper < var.lower:
            self._infeasible = True
            return
        if vid not in self._rows and var.value < var.lower:
            self._update_nonbasic(vid, var.lower)

    def _update_nonbasic(self, vid: int, value: Fraction) -> None:
        """Set a nonbasic variable's value, updating all basic values."""
        delta = value - self._vars[vid].value
        if delta == 0:
            return
        self._vars[vid].value = value
        for basic, row in self._rows.items():
            c = row.coeff_num(vid)
            if c:
                self._vars[basic].value += Fraction(c, row.den) * delta

    # ------------------------------------------------------------------
    # The check loop
    # ------------------------------------------------------------------
    def check(self, max_pivots: int = 100_000) -> bool:
        """Pivot to feasibility. True = SAT, False = UNSAT.

        Raises :class:`ResourceError` if the pivot budget is exhausted
        (cannot happen with Bland's rule unless the budget is set below
        the finite pivot bound, but callers may pass small budgets).
        """
        if self._infeasible:
            return False
        pivots = 0
        while True:
            violating = self._find_violating_basic()
            if violating is None:
                return True
            basic, need_increase = violating
            entering = self._find_entering(basic, need_increase)
            if entering is None:
                return False
            self._pivot(basic, entering, need_increase)
            pivots += 1
            if pivots > max_pivots:
                raise ResourceError(f"simplex exceeded {max_pivots} pivots")

    def _find_violating_basic(self) -> Optional[Tuple[int, bool]]:
        # Bland's rule: smallest id first.
        for basic in sorted(self._rows):
            var = self._vars[basic]
            if var.lower is not None and var.value < var.lower:
                return basic, True
            if var.upper is not None and var.value > var.upper:
                return basic, False
        return None

    def _find_entering(self, basic: int, need_increase: bool) -> Optional[int]:
        """Find a nonbasic variable whose movement can fix *basic*.

        ``nonzero_ids`` ascends, and ``den > 0`` makes ``sign(num)`` the
        coefficient sign, so the choice matches the Fraction engine."""
        row = self._rows[basic]
        for nid in row.nonzero_ids():
            cnum = row.coeff_num(nid)
            var = self._vars[nid]
            if need_increase:
                # basic must increase: raise nid if coeff>0 (and nid has
                # headroom above), or lower nid if coeff<0.
                if cnum > 0 and (var.upper is None or var.value < var.upper):
                    return nid
                if cnum < 0 and (var.lower is None or var.value > var.lower):
                    return nid
            else:
                if cnum > 0 and (var.lower is None or var.value > var.lower):
                    return nid
                if cnum < 0 and (var.upper is None or var.value < var.upper):
                    return nid
        return None

    def _pivot(self, basic: int, entering: int, need_increase: bool) -> None:
        """Swap *basic* and *entering*; move basic exactly to its bound."""
        self.pivots += 1
        self.pivot_log.append((basic, entering))
        width = len(self._vars)
        var_b = self._vars[basic]
        target = var_b.lower if need_increase else var_b.upper
        assert target is not None
        row = self._rows.pop(basic)
        row.pad(width)
        a_num = row.coeff_num(entering)
        a = Fraction(a_num, row.den)
        # basic = Σ (N_j/d) x_j  ⇒  entering = (d·basic − Σ_{j≠e} N_j x_j) / N_e
        new_num = -row.num
        new_num[entering] = 0
        new_num[basic] = row.den
        new_den = a_num
        if new_den < 0:
            new_num = -new_num
            new_den = -new_den
        new_row = _Row(new_num, new_den)
        new_row.normalize()
        # Substitute into every other row that mentions `entering`, and
        # update its basic value incrementally: only x_entering moved
        # among its nonbasics, by delta_e, so the value change is exactly
        # old_coeff(entering) * delta_e (same rational the Fraction
        # engine recomputes from scratch).
        delta_basic = target - var_b.value
        delta_e = delta_basic / a
        n_max = new_row.max_abs()
        for other, orow in self._rows.items():
            orow.pad(width)
            ce = orow.coeff_num(entering)
            if not ce:
                continue
            self._vars[other].value += Fraction(ce, orow.den) * delta_e
            # Predicted worst-case magnitude of o_num·n_den + ce·n_num;
            # promote both operands to exact object arrays if int64
            # could overflow.
            if (orow.num.dtype != object and
                    (orow.max_abs() * new_row.den + abs(ce) * n_max
                     >= _INT64_SAFE
                     or orow.den * new_row.den >= _INT64_SAFE)):
                orow.promote()
            if orow.num.dtype == object and new_row.num.dtype != object:
                scaled_new = new_row.num.astype(object)
            else:
                scaled_new = new_row.num
            onum = orow.num
            if onum.dtype != scaled_new.dtype and onum.dtype != object:
                onum = onum.astype(object)
            onum = onum * new_row.den
            onum[entering] = 0
            orow.num = onum + ce * scaled_new
            orow.den = orow.den * new_row.den
            orow.normalize()
        self._rows[entering] = new_row
        var_b.value = target
        self._vars[entering].value += delta_e

    # ------------------------------------------------------------------
    def model(self) -> Dict[str, Fraction]:
        """Rational values for all problem variables (slacks excluded)."""
        return {v.name: v.value for v in self._vars if not v.name.startswith("!slk!")}

    def copy(self) -> "DenseSimplexSolver":
        dup = DenseSimplexSolver()
        dup._vars = [_VarState(v.name, v.lower, v.upper, v.value) for v in self._vars]
        dup._ids = dict(self._ids)
        dup._rows = {b: r.copy() for b, r in self._rows.items()}
        dup._basic_of_form = dict(self._basic_of_form)
        dup._infeasible = self._infeasible
        return dup


#: The engine the rest of the stack uses: vectorized when numpy is
#: available, the sparse Fraction engine otherwise. Both are exact.
SimplexSolver = DenseSimplexSolver if _np is not None else FractionSimplexSolver
