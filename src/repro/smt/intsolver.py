"""Integer layer: branch & bound over the rational simplex.

Decides conjunctions of canonical constraints over the *integers*.
The LP relaxation is solved first; if the rational model is already
integral we are done, otherwise we branch on a fractional variable
(``x <= floor(v)`` / ``x >= ceil(v)``) and recurse.

Soundness notes (these are what FormAD relies on):

* LP-infeasible ⇒ integer-infeasible, so UNSAT answers are always
  sound proofs of disjointness.
* A node budget bounds the search; exhausting it yields UNKNOWN, which
  FormAD treats as "possibly conflicting" (safe fallback, paper §5.5).
* Per-constraint GCD tightening happens earlier, in
  :func:`repro.smt.linform.canonicalize`, which prunes the classic
  divisibility traps (e.g. ``2x = 2y + 1``) before branching starts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

from .linform import Constraint
from .presolve import PresolveInfeasible, presolve
from .simplex import ResourceError, SimplexSolver


class Result(enum.Enum):
    """Z3-style tri-state answer."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class IntCheckOutcome:
    result: Result
    model: Optional[Dict[str, int]] = None
    nodes_explored: int = 0
    #: Why the result is UNKNOWN: ``"timeout"`` (deadline expired),
    #: ``"budget"`` (node budget exhausted), ``"solver-unknown"``
    #: (simplex pivot limit). None for SAT/UNSAT.
    reason: Optional[str] = None


def check_int(
    constraints: Sequence[Constraint],
    *,
    node_budget: int = 2000,
    pivot_budget: int = 100_000,
    deadline=None,
) -> IntCheckOutcome:
    """Decide a conjunction of canonical constraints over the integers.

    ``deadline`` (a :class:`repro.resilience.deadline.Deadline` or None) is
    polled once per branch-and-bound node — the cooperative tick that
    bounds how long one check can run past its wall-clock budget.
    """
    outcome = IntCheckOutcome(Result.UNKNOWN)
    try:
        reduced = presolve(constraints)
    except PresolveInfeasible:
        outcome.result = Result.UNSAT
        return outcome
    root = SimplexSolver()
    for c in reduced.constraints:
        root.assert_constraint(c)
    outcome.result = _branch(root, reduced.constraints, outcome,
                             node_budget, pivot_budget, deadline)
    if outcome.result is Result.SAT:
        assert outcome.model is not None
        full = reduced.reconstruct(outcome.model)
        # Validate against the *original* constraints, not the reduced ones.
        assert all(c.holds(full) for c in constraints)
        outcome.model = full
    return outcome


def _branch(
    solver: SimplexSolver,
    constraints: Sequence[Constraint],
    outcome: IntCheckOutcome,
    node_budget: int,
    pivot_budget: int,
    deadline=None,
) -> Result:
    stack: List[SimplexSolver] = [solver]
    saw_unknown = False
    while stack:
        outcome.nodes_explored += 1
        if outcome.nodes_explored > node_budget:
            outcome.reason = "budget"
            return Result.UNKNOWN
        if deadline is not None and deadline.expired():
            outcome.reason = "timeout"
            return Result.UNKNOWN
        node = stack.pop()
        try:
            feasible = node.check(max_pivots=pivot_budget)
        except ResourceError:
            saw_unknown = True
            continue
        if not feasible:
            continue
        model = node.model()
        frac_name, frac_value = _first_fractional(model)
        if frac_name is None:
            int_model = {n: int(v) for n, v in model.items()}
            # Defensive re-validation: the simplex is exact arithmetic,
            # but a cheap double-check keeps soundness obvious.
            assert all(c.holds(int_model) for c in constraints)
            outcome.model = int_model
            return Result.SAT
        lo_branch = node.copy()
        lo_branch.assert_upper(frac_name, Fraction(math.floor(frac_value)))
        hi_branch = node
        hi_branch.assert_lower(frac_name, Fraction(math.ceil(frac_value)))
        stack.append(lo_branch)
        stack.append(hi_branch)
    if saw_unknown:
        outcome.reason = "solver-unknown"
        return Result.UNKNOWN
    return Result.UNSAT


def _first_fractional(model: Dict[str, Fraction]) -> tuple[Optional[str], Fraction]:
    for name in sorted(model):
        value = model[name]
        if value.denominator != 1:
            return name, value
    return None, Fraction(0)
