"""General simplex for linear rational arithmetic.

Implements the solver of Dutertre & de Moura ("A fast linear-arithmetic
solver for DPLL(T)", CAV 2006): every constraint ``Σ a_i x_i ⋈ c``
introduces a *slack* variable ``s = Σ a_i x_i`` constrained only by
bounds; the tableau keeps basic variables expressed over nonbasic ones,
and ``check`` pivots (Bland's rule, so termination is guaranteed) until
either all basic variables sit within their bounds (SAT, with a rational
model) or some row proves a bound conflict (UNSAT).

There is one engine, :class:`SimplexSolver`: sparse rows of exact
``Fraction`` coefficients, so every pivot, value and model is exact and
an UNSAT row is a conflict over the rationals, not an approximation.
This module decides *conjunctions* over the rationals; integrality is
layered on top by :mod:`repro.smt.intsolver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linform import Constraint, LinForm
from .terms import Rel

#: Bounds use None for ±infinity.
Bound = Optional[Fraction]


class ResourceError(RuntimeError):
    """A solver resource budget (pivots, branch nodes) was exhausted."""


@dataclass
class _VarState:
    name: str            # problem-variable name, or "!slk!<k>" for slacks
    lower: Bound = None
    upper: Bound = None
    value: Fraction = Fraction(0)


class SimplexSolver:
    """The exact simplex engine: ``{nonbasic id: Fraction}`` rows.

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
        #: tests can pin the exact pivot sequence.
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
        for name, coeff in form.coeffs:
            vid = self._var_id(name)
            contribution = Fraction(coeff)
            if vid in self._rows:
                # The variable is itself basic: substitute its row.
                for nid, c in self._rows[vid].items():
                    row[nid] = row.get(nid, Fraction(0)) + contribution * c
            else:
                row[vid] = row.get(vid, Fraction(0)) + contribution
        row = {k: v for k, v in row.items() if v != 0}
        self._rows[sid] = row
        self._vars[sid].value = sum(
            (c * self._vars[nid].value for nid, c in row.items()),
            Fraction(0))
        self._basic_of_form[key] = sid
        return sid

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
        # basic moves to its violated bound and entering absorbs the
        # difference. Among the other rows' nonbasics only entering
        # moved, so each of their basics changes by coeff * delta_e.
        delta_e = (target - var_b.value) / a
        # Substitute into every other row that mentions `entering`.
        for other, orow in self._rows.items():
            coeff = orow.pop(entering, None)
            if coeff:
                self._vars[other].value += coeff * delta_e
                for nid, c in new_row.items():
                    orow[nid] = orow.get(nid, Fraction(0)) + coeff * c
                    if orow[nid] == 0:
                        del orow[nid]
        self._rows[entering] = {k: v for k, v in new_row.items() if v != 0}
        var_b.value = target
        self._vars[entering].value += delta_e

    # ------------------------------------------------------------------
    def model(self) -> Dict[str, Fraction]:
        """Rational values for all problem variables (slacks excluded)."""
        return {v.name: v.value for v in self._vars if not v.name.startswith("!slk!")}

    def copy(self) -> "SimplexSolver":
        dup = SimplexSolver()
        dup._vars = [_VarState(v.name, v.lower, v.upper, v.value) for v in self._vars]
        dup._ids = dict(self._ids)
        dup._rows = {b: dict(r) for b, r in self._rows.items()}
        dup._basic_of_form = dict(self._basic_of_form)
        dup._infeasible = self._infeasible
        return dup


# bench/layers.py's ``smt.simplex`` boundary resolves the engine by this
# name (``DenseSimplexSolver.check``); the benchmark change that points
# the boundary at ``SimplexSolver`` deletes this line. Nothing in
# ``src/`` or ``tests/`` may use it.
DenseSimplexSolver = SimplexSolver
