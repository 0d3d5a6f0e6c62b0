"""Model-guided clause search (the DPLL(T) layer).

Decides satisfiability of ``base ∧ clauses`` over the integers, where
*base* is a conjunction of canonical constraints and each clause is a
disjunction of atoms.

The search is model-guided: solve the LIA conjunction of the currently
asserted constraints; if the resulting integer model already satisfies
every clause we are done (SAT). Otherwise pick the first clause whose
literals are all false under the model and branch on its literals —
once a literal from a clause is asserted, that clause stays satisfied
on the whole subtree, so the branch depth is bounded by the number of
clauses. UNSAT requires every branch to be LIA-refuted, keeping the
overall UNSAT answer a sound proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .clausify import Clause
from .intsolver import Result, check_int
from .linform import Constraint, TrivialConstraint, canonicalize
from .presolve import (ENTAILED, INFEASIBLE, KEPT, PresolveInfeasible,
                       literal_status, presolve)
from .terms import FAtom


@dataclass
class SearchStats:
    """Counters for one :func:`search` call.

    ``propagations`` counts clause-to-unit promotions: clauses whose
    literals were narrowed down to one surviving atom (by trivial
    filtering, the substitution presolve, or per-literal theory checks)
    and therefore asserted into the base without branching.
    """

    theory_checks: int = 0
    branches: int = 0
    propagations: int = 0


@dataclass
class SearchOutcome:
    result: Result
    model: Optional[Dict[str, int]] = None
    stats: SearchStats = field(default_factory=SearchStats)
    #: Why the result is UNKNOWN: ``"timeout"`` (deadline expired),
    #: ``"budget"`` (theory-check budget exhausted), or
    #: ``"solver-unknown"`` (the integer layer gave up). None
    #: otherwise — FormAD's stats and traces surface this so budget
    #: exhaustion is distinguishable from a genuine unknown.
    reason: Optional[str] = None


class _Budget:
    """Theory-check budget plus the cooperative deadline tick: one
    poll of the (optional) deadline per simplex-backed check, so an
    expired search stops within a single theory check."""

    def __init__(self, max_theory_checks: int, deadline=None) -> None:
        self.remaining = max_theory_checks
        self.deadline = deadline
        self.reason: Optional[str] = None

    def spend(self) -> bool:
        if self.deadline is not None and self.deadline.expired():
            self.reason = "timeout"
            return False
        self.remaining -= 1
        if self.remaining < 0:
            self.reason = "budget"
            return False
        return True

    def note_unknown(self, reason: Optional[str]) -> None:
        """Record the first underlying UNKNOWN reason seen."""
        if self.reason is None:
            self.reason = reason or "solver-unknown"


@lru_cache(maxsize=200_000)
def _atom_constraints(atom: FAtom) -> Optional[Tuple[Constraint, ...]]:
    """Canonical constraints for an atom; None if trivially false and
    ``()`` if trivially true. Cached — the same atoms recur across
    thousands of checks in a FormAD analysis."""
    try:
        return canonicalize(atom)
    except TrivialConstraint as t:
        return () if t.truth else None


def _atom_holds(atom: FAtom, model: Dict[str, int]) -> bool:
    cons = _atom_constraints(atom)
    return cons is not None and all(c.holds(model) for c in cons)


class Level:
    """The constraints asserted at one push level of an assertion stack:
    unit constraints (``base``) and multi-literal ``clauses``. Both lists
    only ever grow while the level is alive.

    The level also keeps the variable names of its base and of its
    clauses in first-appearance order, extended lazily (only when a
    search needs the spread assignment) from where the last extension
    stopped. The names live in insertion-ordered dicts, never in sets:
    set order follows the interpreter's hash seed, and the order decides
    which value each variable gets in :func:`_spread_model`.
    """

    __slots__ = ("base", "clauses", "_base_names", "_clause_names",
                 "_named")

    def __init__(self, base: Optional[List[Constraint]] = None,
                 clauses: Optional[List[Clause]] = None) -> None:
        self.base: List[Constraint] = [] if base is None else base
        self.clauses: List[Clause] = [] if clauses is None else clauses
        self._base_names: Dict[str, None] = {}
        self._clause_names: Dict[str, None] = {}
        self._named = (0, 0)  # prefixes of base/clauses already named

    def mark(self) -> Tuple[int, int]:
        """How much of the level exists now: ``(len(base), len(clauses))``."""
        return len(self.base), len(self.clauses)

    def names(self) -> Tuple[Dict[str, None], Dict[str, None]]:
        """The base's and the clauses' variable names, each in
        first-appearance order."""
        nbase, nclauses = self._named
        if nbase < len(self.base):
            names = self._base_names
            for c in self.base[nbase:]:
                for n, _ in c.form.coeffs:
                    names[n] = None
        if nclauses < len(self.clauses):
            names = self._clause_names
            for clause in self.clauses[nclauses:]:
                for atom in clause:
                    for c in _atom_constraints(atom) or ():
                        for n, _ in c.form.coeffs:
                            names[n] = None
        self._named = self.mark()
        return self._base_names, self._clause_names


def _model_satisfies(model: Dict[str, int], levels: Sequence[Level],
                     marks: Sequence[Tuple[int, int]] = ()) -> bool:
    """Pure evaluation: does *model* (absent variables read as 0) satisfy
    every constraint and clause of *levels* past *marks*?

    ``marks[i]`` is level *i*'s :meth:`Level.mark` when *model* was
    minted; levels without a mark are evaluated whole. Skipping the
    marked prefixes is exact when *model* satisfied them at minting time
    and they have not changed since (levels only grow).
    """
    starts = list(marks) + [(0, 0)] * (len(levels) - len(marks))
    for level, (nbase, _) in zip(levels, starts):
        for c in level.base[nbase:]:
            if not c.holds(model):
                return False
    for level, (_, nclauses) in zip(levels, starts):
        for clause in level.clauses[nclauses:]:
            if not any(_atom_holds(atom, model) for atom in clause):
                return False
    return True


def _spread_model(levels: Sequence[Level]) -> Dict[str, int]:
    """A heuristic all-distinct, widely-spaced assignment.

    Disjointness-dominated problems (FormAD's buildModel consistency
    checks) are almost always satisfied by giving every variable a
    distinct huge value; evaluating this guess costs no simplex calls.

    Variables are numbered in first-appearance order over every level's
    base, then every level's clauses (each constraint's ``form.coeffs``,
    sorted by name). Which value each variable receives decides whether
    this guess already satisfies the query, so the order must not follow
    the interpreter's hash seed: the answer must not differ between the
    parent and a worker process.
    """
    names: Dict[str, None] = {}
    per_level = [level.names() for level in levels]
    for base_names, _ in per_level:
        names.update(base_names)
    for _, clause_names in per_level:
        names.update(clause_names)
    return {n: (k + 1) * 1_000_003 for k, n in enumerate(names)}


def search(
    levels: Sequence[Level],
    *,
    max_theory_checks: int = 20000,
    node_budget: int = 2000,
    initial_model: Optional[Dict[str, int]] = None,
    marks: Sequence[Tuple[int, int]] = (),
    deadline=None,
) -> SearchOutcome:
    """Decide the conjunction of every level's base and clauses over the
    integers.

    ``initial_model`` is an optional warm-start guess (e.g. the model of
    the previous check on an incrementally-grown assertion set); if it
    or the spread heuristic satisfies everything, no search runs.
    ``marks`` are the levels' :meth:`Level.mark` at the time
    ``initial_model`` was minted as a SAT model of them: the guess is
    then evaluated only against what was asserted after the marks, plus
    levels past the last mark. ``deadline`` bounds the search in
    wall-clock time: it is polled before every theory check and inside
    the integer layer's branch & bound, and expiry yields UNKNOWN with
    ``reason="timeout"``.
    """
    stats = SearchStats()
    budget = _Budget(max_theory_checks, deadline)
    if initial_model and _model_satisfies(initial_model, levels, marks):
        return SearchOutcome(Result.SAT, dict(initial_model), stats)
    spread = _spread_model(levels)
    if _model_satisfies(spread, levels):
        return SearchOutcome(Result.SAT, spread, stats)

    # Preprocess clauses: drop trivially-true ones, strip trivially
    # false literals, and promote unit clauses into the base. Each
    # surviving literal keeps its constraints for the filter below.
    base_list: List[Constraint] = [c for level in levels for c in level.base]
    stripped: List[List[Tuple[FAtom, Tuple[Constraint, ...]]]] = []
    for level in levels:
        for clause in level.clauses:
            literals: List[Tuple[FAtom, Tuple[Constraint, ...]]] = []
            trivially_true = False
            for atom in clause:
                cons = _atom_constraints(atom)
                if cons is None:
                    continue  # literal is false, drop it
                if cons == ():
                    trivially_true = True
                    break
                literals.append((atom, cons))
            if trivially_true:
                continue
            if not literals:
                return SearchOutcome(Result.UNSAT, stats=stats)
            if len(literals) == 1:
                stats.propagations += 1
                base_list.extend(literals[0][1])
            else:
                stripped.append(literals)

    # Cheap substitution-based unit propagation: run the equality
    # presolve on the base once, then push every clause literal through
    # the substitution chain. A literal collapsing to "false" is
    # dropped; a clause whose literals all collapse is an outright
    # refutation; a literal collapsing to "true" discharges its clause.
    # This is pure arithmetic (no simplex) and catches FormAD's common
    # UNSAT shape — the asserted question equality directly contradicts
    # one knowledge clause — without exploring an exponential tree.
    try:
        pres = presolve(base_list)
    except PresolveInfeasible:
        return SearchOutcome(Result.UNSAT, stats=stats)
    filtered: List[Clause] = []
    for literals in stripped:
        kept: List[FAtom] = []
        entailed = False
        for atom, cons in literals:
            status = KEPT
            for c in cons:
                status = literal_status(c, pres.substitutions)
                if status is not KEPT:
                    break
            if status is INFEASIBLE:
                continue  # literal is false under the base equalities
            if status is ENTAILED and len(cons) == 1:
                # Conservative: only single-constraint literals are
                # certainly entailed when their constraint is.
                entailed = True
                break
            kept.append(atom)
        if entailed:
            continue
        if not kept:
            return SearchOutcome(Result.UNSAT, stats=stats)
        if len(kept) == 1:
            stats.propagations += 1
            base_list.extend(_atom_constraints(kept[0]) or ())
            try:
                pres = presolve(base_list)
            except PresolveInfeasible:
                return SearchOutcome(Result.UNSAT, stats=stats)
        else:
            filtered.append(tuple(kept))
    pending = filtered

    # Stronger (theory-check) unit propagation for small problems only:
    # each literal costs one simplex solve, which pays off when a few
    # clauses gate a deep search but is too expensive at LBM scale.
    if len(pending) <= 60:
        for _round in range(10):
            changed = False
            survivors: List[Clause] = []
            for clause in pending:
                kept = []
                for atom in clause:
                    cons = _atom_constraints(atom)
                    assert cons
                    if not budget.spend():
                        return SearchOutcome(Result.UNKNOWN, stats=stats,
                                             reason=budget.reason)
                    stats.theory_checks += 1
                    outcome = check_int(base_list + list(cons),
                                        node_budget=node_budget,
                                        deadline=budget.deadline)
                    if outcome.result is not Result.UNSAT:
                        kept.append(atom)
                if not kept:
                    return SearchOutcome(Result.UNSAT, stats=stats)
                if len(kept) == 1:
                    stats.propagations += 1
                    base_list.extend(_atom_constraints(kept[0]) or ())
                    changed = True  # stronger base: re-filter survivors
                else:
                    survivors.append(tuple(kept))
            pending = survivors
            if not changed:
                break

    result, model = _search_node(base_list, pending, stats, budget, node_budget)
    reason = budget.reason if result is Result.UNKNOWN else None
    return SearchOutcome(result, model, stats,
                         reason=(reason or "solver-unknown")
                         if result is Result.UNKNOWN else None)


def _search_node(
    constraints: List[Constraint],
    clauses: List[Clause],
    stats: SearchStats,
    budget: _Budget,
    node_budget: int,
) -> Tuple[Result, Optional[Dict[str, int]]]:
    if not budget.spend():
        return Result.UNKNOWN, None
    stats.theory_checks += 1
    outcome = check_int(constraints, node_budget=node_budget,
                        deadline=budget.deadline)
    if outcome.result is Result.UNSAT:
        return Result.UNSAT, None
    if outcome.result is Result.UNKNOWN:
        budget.note_unknown(outcome.reason)
        return Result.UNKNOWN, None
    model = outcome.model
    assert model is not None
    # Find the first clause falsified by the model.
    violated: Optional[Clause] = None
    for clause in clauses:
        if not any(_atom_holds(atom, model) for atom in clause):
            violated = clause
            break
    if violated is None:
        return Result.SAT, model
    saw_unknown = False
    remaining = [c for c in clauses if c is not violated]
    stats.branches += 1
    for atom in violated:
        cons = _atom_constraints(atom)
        assert cons  # trivial literals were stripped during preprocessing
        result, submodel = _search_node(constraints + list(cons), remaining,
                                        stats, budget, node_budget)
        if result is Result.SAT:
            return Result.SAT, submodel
        if result is Result.UNKNOWN:
            saw_unknown = True
    return (Result.UNKNOWN if saw_unknown else Result.UNSAT), None
