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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .clausify import Clause
from .intsolver import Result, check_int
from .linform import Constraint, TrivialConstraint, canonicalize
from .presolve import (ENTAILED, INFEASIBLE, KEPT, PresolveInfeasible,
                       Substitution, literal_status, presolve)
from .terms import FAtom, Rel


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


#: A clause literal with its canonical constraints.
_Literal = Tuple[FAtom, Tuple[Constraint, ...]]
#: (clause, literal) positions in a level's prepared clauses.
_Positions = List[Tuple[int, int]]


class _Prepared:
    """One level's clauses, stripped for the clause filter once each.

    What stripping does to a clause depends on that clause alone: a
    trivially true clause is dropped, trivially false literals are
    removed, a clause left with one literal is a unit whose constraints
    join the base (``units``, in clause order; ``nunits`` counts the
    clauses), and a clause left with none refutes every search over the
    level (``refuted_at`` is then the number of unit clauses before the
    first such clause). Every other clause keeps its literals with their
    constraints (``literals``) and one tuple of its atoms (``atoms``):
    one tuple per clause occurrence, because the search drops the clause
    it branches on by identity.

    The index answers which literals a presolve substitution chain can
    change (:meth:`changed`); all others are kept without arithmetic.
    """

    __slots__ = ("done", "units", "nunits", "refuted_at", "literals",
                 "atoms", "_eq_by_var", "_le_by_form", "_by_var",
                 "_by_var_done")

    def __init__(self) -> None:
        self.done = 0  # prefix of the level's clauses prepared
        self.units: List[Constraint] = []
        self.nunits = 0
        self.refuted_at: Optional[int] = None
        self.literals: List[Tuple[_Literal, ...]] = []
        self.atoms: List[Clause] = []
        # Positions of EQ constraints by variable, of LE constraints by
        # form, and of every constraint by variable; the last is built
        # only once a chain of two or more steps needs it, from where
        # the previous build stopped.
        self._eq_by_var: Dict[str, _Positions] = {}
        self._le_by_form: Dict[Tuple[Tuple[str, int], ...], _Positions] = {}
        self._by_var: Dict[str, _Positions] = {}
        self._by_var_done = 0  # prefix of `literals` in `_by_var`

    def extend(self, clauses: Sequence[Clause]) -> None:
        """Prepare *clauses*, the level's clauses past :attr:`done`."""
        for clause in clauses:
            literals: List[_Literal] = []
            for atom in clause:
                cons = _atom_constraints(atom)
                if cons == ():
                    break  # a trivially true literal: the clause holds
                if cons is not None:  # a trivially false literal drops
                    literals.append((atom, cons))
            else:
                if not literals:
                    if self.refuted_at is None:
                        self.refuted_at = self.nunits
                elif len(literals) == 1:
                    self.nunits += 1
                    self.units.extend(literals[0][1])
                else:
                    self._index(len(self.literals), literals)
                    self.literals.append(tuple(literals))
                    self.atoms.append(tuple(atom for atom, _ in literals))
        self.done += len(clauses)

    def _index(self, ci: int, literals: Sequence[_Literal]) -> None:
        for j, (_, cons) in enumerate(literals):
            for c in cons:
                if c.rel is Rel.LE:
                    self._le_by_form.setdefault(c.form.coeffs, []).append(
                        (ci, j))
                else:
                    for v, _ in c.form.coeffs:
                        self._eq_by_var.setdefault(v, []).append((ci, j))

    def _positions_by_var(self) -> Dict[str, _Positions]:
        by_var = self._by_var
        for ci in range(self._by_var_done, len(self.literals)):
            for j, (_, cons) in enumerate(self.literals[ci]):
                for c in cons:
                    for v, _ in c.form.coeffs:
                        by_var.setdefault(v, []).append((ci, j))
        self._by_var_done = len(self.literals)
        return by_var

    def changed(self, substitutions: Sequence[Substitution],
                start: int) -> Dict[int, Set[int]]:
        """The prepared clauses from *start* on with a literal that
        *substitutions* may not keep, in clause order, each with the
        positions of those literals. Every other literal is
        :data:`KEPT` by the chain.

        A constraint without any substituted variable is kept. Under a
        one-step chain ``v := f``, an LE constraint ``a·v + rest <= b``
        reduces to ``rest + a·f.coeffs <= b - a·f.const``. That keeps a
        variable, and so the constraint, unless ``rest = -a·f.coeffs``,
        that is, unless its form is ``a·g`` for ``g = v - f.coeffs``. A
        canonical form is primitive (:func:`canonicalize` divides by the
        content) and ``g`` has coefficient 1 on ``v``, so ``a`` is ±1
        and the index looks the form up as ``g`` and ``-g``. An EQ
        constraint with variables can still fail the GCD test, so every
        EQ constraint on ``v`` is returned, and so is every constraint
        on a substituted variable of a longer chain.
        """
        if len(substitutions) == 1:
            var = substitutions[0].var
            g = tuple(sorted([(var, 1)] + [(n, -k) for n, k in
                                           substitutions[0].form.coeffs]))
            hits = list(self._eq_by_var.get(var, ()))
            hits.extend(self._le_by_form.get(g, ()))
            hits.extend(self._le_by_form.get(
                tuple((n, -k) for n, k in g), ()))
        else:
            by_var = self._positions_by_var()
            hits = [hit for sub in substitutions
                    for hit in by_var.get(sub.var, ())]
        changed: Dict[int, Set[int]] = {}
        for ci, j in sorted(hits):
            if ci >= start:
                changed.setdefault(ci, set()).add(j)
        return changed


class Level:
    """The constraints asserted at one push level of an assertion stack:
    unit constraints (``base``) and multi-literal ``clauses``. Both lists
    only ever grow while the level is alive.

    The level also keeps the variable names of its base and of its
    clauses in first-appearance order, extended lazily (only when a
    search needs the spread assignment) from where the last extension
    stopped. The names live in insertion-ordered dicts, never in sets:
    set order follows the interpreter's hash seed, and the order decides
    which value each variable gets in :func:`_spread_model`. Its clauses
    are stripped for the clause filter the same way, each once, when a
    search first needs them (:meth:`prepared`).
    """

    __slots__ = ("base", "clauses", "_base_names", "_clause_names",
                 "_named", "_prepared")

    def __init__(self, base: Optional[List[Constraint]] = None,
                 clauses: Optional[List[Clause]] = None) -> None:
        self.base: List[Constraint] = [] if base is None else base
        self.clauses: List[Clause] = [] if clauses is None else clauses
        self._base_names: Dict[str, None] = {}
        self._clause_names: Dict[str, None] = {}
        self._named = (0, 0)  # prefixes of base/clauses already named
        self._prepared = _Prepared()

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

    def prepared(self) -> _Prepared:
        """The level's clauses stripped for the clause filter."""
        prepared = self._prepared
        if prepared.done < len(self.clauses):
            prepared.extend(self.clauses[prepared.done:])
        return prepared


def _kept_atoms(literals: Sequence[_Literal], hits: Set[int],
                substitutions: Sequence[Substitution]
                ) -> Optional[List[FAtom]]:
    """The atoms of a prepared clause that *substitutions* leave open, or
    None when they entail one of its literals. Only the literals at the
    positions *hits* can change."""
    kept: List[FAtom] = []
    for j, (atom, cons) in enumerate(literals):
        if j in hits:
            status = KEPT
            for c in cons:
                status = literal_status(c, substitutions)
                if status is not KEPT:
                    break
            if status is INFEASIBLE:
                continue  # false under the base equalities
            if status is ENTAILED and len(cons) == 1:
                # Conservative: only single-constraint literals are
                # certainly entailed when their constraint is.
                return None
        kept.append(atom)
    return kept


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

    # Each level's clauses come stripped (see _Prepared): a clause left
    # without literals refutes the search, and unit clauses join the
    # base after every level's own base, in level and clause order.
    preps: List[_Prepared] = []
    for level in levels:
        prepared = level.prepared()
        if prepared.refuted_at is not None:
            stats.propagations += prepared.refuted_at
            return SearchOutcome(Result.UNSAT, stats=stats)
        stats.propagations += prepared.nunits
        preps.append(prepared)
    base_list: List[Constraint] = [c for level in levels for c in level.base]
    for prepared in preps:
        base_list.extend(prepared.units)

    # Cheap substitution-based unit propagation: run the equality
    # presolve on the base once, then push the clause literals through
    # the substitution chain. A literal collapsing to "false" is
    # dropped; a clause whose literals all collapse is an outright
    # refutation; a literal collapsing to "true" discharges its clause.
    # This is pure arithmetic (no simplex) and catches FormAD's common
    # UNSAT shape — the asserted question equality directly contradicts
    # one knowledge clause — without exploring an exponential tree.
    # Only the literals each level's index returns can collapse
    # (_Prepared.changed); a clause turning unit reruns presolve, and
    # the clauses after it are filtered under the new chain.
    try:
        pres = presolve(base_list)
    except PresolveInfeasible:
        return SearchOutcome(Result.UNSAT, stats=stats)
    pending: List[Clause] = []
    for prepared in preps:
        done = 0  # prepared clauses before `done` are settled
        while True:
            for ci, hits in prepared.changed(pres.substitutions,
                                             done).items():
                pending.extend(prepared.atoms[done:ci])
                done = ci + 1
                kept = _kept_atoms(prepared.literals[ci], hits,
                                   pres.substitutions)
                if kept is None:
                    continue  # an entailed literal discharges the clause
                if not kept:
                    return SearchOutcome(Result.UNSAT, stats=stats)
                if len(kept) == 1:
                    stats.propagations += 1
                    base_list.extend(_atom_constraints(kept[0]) or ())
                    try:
                        pres = presolve(base_list)
                    except PresolveInfeasible:
                        return SearchOutcome(Result.UNSAT, stats=stats)
                    break  # filter the rest under the new chain
                pending.append(tuple(kept))
            else:
                break
        pending.extend(prepared.atoms[done:])

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
