"""The ``Solver`` facade — the Z3 API subset the paper's pseudo-code uses.

FormAD's algorithms (paper §5.5) call exactly ``Solver()``, ``add``,
``push``, ``pop``, ``check`` and compare against SAT/UNSAT. This class
provides that interface on top of the from-scratch QF_UFLIA pipeline:

    assertions --ackermannize--> UF-free formulas
               --clausify-----> base constraints + clauses
               --search-------> SAT (with model) / UNSAT / UNKNOWN

``check()`` is *incremental*: every assertion is ackermannized,
clausified, and canonicalized exactly once, when first seen, into a
clause store tagged with its assertion-stack level; ``pop()`` unwinds
the popped levels' clauses and Ackermann applications. The buildModel
pattern — add one fact, re-check — therefore translates one formula per
check instead of the whole stack, and the push/add-question/check/pop
pattern of exploitation queries translates only the question. The
pre-existing from-scratch behavior is kept behind
``Solver(incremental=False)`` as the benchmark baseline.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.tracer import NULL_TRACER, NullTracer
from ..resilience.deadline import combine
from .ackermann import Ackermannizer, ackermannize
from .clausify import (DEFAULT_MAX_CLAUSES, Clause,
                       ClausifyBudgetError, clausify_probe)
from .intsolver import Result
from .linform import Constraint, TrivialConstraint, canonicalize
from .search import Level, SearchOutcome, SearchStats, search
from .terms import FAtom, Formula, TApp, Term

SAT = Result.SAT
UNSAT = Result.UNSAT
UNKNOWN = Result.UNKNOWN

logger = logging.getLogger(__name__)


@dataclass
class SolverStats:
    """Cumulative statistics over the lifetime of a solver instance.

    ``time_seconds`` is the end-to-end ``check()`` time; the three
    ``*_seconds`` phase counters break its translation/search split
    down (``translate`` is Ackermann rewriting + congruence-axiom
    generation, ``clausify`` is CNF conversion + unit canonicalization,
    ``search`` is the DPLL(T) layer). ``clausify_hits``/``misses``
    count this solver's own probes of the process-global per-formula
    clause cache — each probe reports its own outcome, so the counters
    stay correct when several solver threads translate concurrently;
    only cache *warmth* remains history-dependent.
    """

    checks: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    theory_checks: int = 0
    branches: int = 0
    propagations: int = 0
    time_seconds: float = 0.0
    translate_seconds: float = 0.0
    clausify_seconds: float = 0.0
    search_seconds: float = 0.0
    formulas_translated: int = 0
    congruence_axioms: int = 0
    clausify_hits: int = 0
    clausify_misses: int = 0
    # UNKNOWN breakdown (sums to ``unknown``): a deadline expiry, a
    # configured budget cap, or the search genuinely giving up. This
    # is the structured reason the resilience layer keys retries on.
    unknown_timeout: int = 0
    unknown_budget: int = 0
    unknown_solver: int = 0

    def record(self, result: Result, elapsed: float,
               search_stats: SearchStats,
               reason: Optional[str] = None) -> None:
        self.checks += 1
        self.time_seconds += elapsed
        self.theory_checks += search_stats.theory_checks
        self.branches += search_stats.branches
        self.propagations += search_stats.propagations
        if result is SAT:
            self.sat += 1
        elif result is UNSAT:
            self.unsat += 1
        else:
            self.unknown += 1
            if reason == "timeout":
                self.unknown_timeout += 1
            elif reason == "budget":
                self.unknown_budget += 1
            else:
                self.unknown_solver += 1


class _Level(Level):
    """Translated state of one assertion-stack level: the search's
    :class:`Level` (canonical unit constraints in ``base``,
    multi-literal ``clauses``) plus what produced it."""

    __slots__ = ("formulas", "translated", "apps", "nclauses",
                 "falsified", "poisoned")

    def __init__(self) -> None:
        super().__init__()
        self.formulas: List[Formula] = []
        self.translated = 0              # prefix of `formulas` translated
        self.apps: List[TApp] = []       # Ackermann apps owned by level
        self.nclauses = 0                # raw clause count (budget)
        self.falsified = False           # a unit clausified to false
        self.poisoned = False            # clausify budget blown


class Solver:
    """An assertion-stack SMT solver for QF_UFLIA."""

    def __init__(
        self,
        *,
        max_theory_checks: int = 20000,
        node_budget: int = 2000,
        max_clauses: int = DEFAULT_MAX_CLAUSES,
        incremental: bool = True,
        tracer: NullTracer = NULL_TRACER,
        deadline=None,
    ) -> None:
        self._levels: List[_Level] = [_Level()]
        self._model: Optional[Dict[str, int]] = None
        self._warm_model: Optional[Dict[str, int]] = None
        # Level.mark() of every level the hint was minted over.
        self._warm_marks: Tuple[Tuple[int, int], ...] = ()
        self._ack = Ackermannizer()
        self._app_names: Dict[TApp, str] = {}
        self.stats = SolverStats()
        self.max_theory_checks = max_theory_checks
        self.node_budget = node_budget
        self.max_clauses = max_clauses
        self.incremental = incremental
        self.tracer = tracer
        #: Run-wide wall-clock bound (a
        #: ``repro.resilience.deadline.Deadline`` or None); every
        #: ``check()`` is additionally capped by it.
        self.deadline = deadline
        #: Structured reason of the last UNKNOWN ``check()`` result
        #: ("timeout" | "budget" | "solver-unknown"), else None.
        self.last_unknown_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Z3-style interface
    # ------------------------------------------------------------------
    def add(self, *formulas: Formula) -> None:
        """Assert formulas at the current stack level."""
        self._levels[-1].formulas.extend(formulas)
        self._model = None

    def push(self) -> None:
        """Save the assertion state."""
        self._levels.append(_Level())

    def pop(self, num: int = 1) -> None:
        """Restore the assertion state ``num`` levels up, unwinding the
        popped levels' clause store and Ackermann applications."""
        for _ in range(num):
            if len(self._levels) == 1:
                raise RuntimeError("pop on an empty solver stack")
            level = self._levels.pop()
            if level.apps:
                self._ack.forget_apps(level.apps)
        if self._warm_level >= len(self._levels):
            # The stack unwound to (or below) the depth the hint was
            # minted at: a later push can repopulate that depth with
            # different assertions, so a depth-only comparison would
            # let a hint derived from popped state seed future checks.
            # Invalidate on reaching the minting depth, not only below.
            self._warm_model = None
            self._warm_marks = ()
        self._model = None

    @property
    def _warm_level(self) -> int:
        """Stack depth the warm-start hint was minted at (0: no hint)."""
        return len(self._warm_marks)

    def assertions(self) -> List[Formula]:
        return [f for level in self._levels for f in level.formulas]

    @property
    def num_assertions(self) -> int:
        return sum(len(level.formulas) for level in self._levels)

    def check(self, *, deadline=None, budget_scale: float = 1.0) -> Result:
        """Decide the conjunction of all current assertions.

        ``deadline`` additionally caps this one check (the tighter of
        it and the solver-wide :attr:`deadline` applies — a
        per-question timeout under a run budget). ``budget_scale``
        multiplies the node/theory-check budgets for this check only:
        the escalation ladder's retry-with-bigger-budgets knob.
        """
        tracer = self.tracer
        stats = self.stats
        effective = combine(deadline, self.deadline)
        scale = max(budget_scale, 1.0)
        theory_budget = int(self.max_theory_checks * scale)
        node_budget = int(self.node_budget * scale)
        if tracer.enabled:
            before = (stats.translate_seconds, stats.clausify_seconds,
                      stats.search_seconds, stats.clausify_hits,
                      stats.clausify_misses)
        start = time.perf_counter()
        if effective is not None and effective.expired():
            # Expired before any work: answer UNKNOWN without touching
            # the clause store (never translate under a dead deadline).
            outcome = SearchOutcome(UNKNOWN, reason="timeout")
        elif self.incremental:
            outcome = self._check_incremental(theory_budget, node_budget,
                                              effective)
        else:
            outcome = self._check_fresh(theory_budget, node_budget,
                                        effective)
        elapsed = time.perf_counter() - start
        stats.record(outcome.result, elapsed, outcome.stats,
                     reason=outcome.reason)
        # Check-latency histogram (repro-metrics/2). Unguarded: this is
        # one no-op method call per check under the default NULL_TRACER,
        # and --progress runs (RegistryTracer, enabled=False) must
        # still see it.
        tracer.observe("solver.check_seconds", elapsed)
        self.last_unknown_reason = (outcome.reason
                                    if outcome.result is UNKNOWN else None)
        if tracer.enabled:
            extra = {}
            if outcome.result is UNKNOWN:
                extra["reason"] = outcome.reason or "solver-unknown"
            tracer.emit(
                "solver_check",
                result=outcome.result.name,
                dur_s=elapsed,
                translate_s=stats.translate_seconds - before[0],
                clausify_s=stats.clausify_seconds - before[1],
                search_s=stats.search_seconds - before[2],
                theory_checks=outcome.stats.theory_checks,
                branches=outcome.stats.branches,
                propagations=outcome.stats.propagations,
                clausify_hits=stats.clausify_hits - before[3],
                clausify_misses=stats.clausify_misses - before[4],
                **extra)
        self._model = outcome.model
        if outcome.model is not None:
            # Warm start for the next check on a grown assertion set
            # (the buildModel pattern: add one fact, re-check). Tagged
            # with the stack depth so pop() can invalidate it, and with
            # each level's size so the next search evaluates it only
            # against what was asserted since: the model satisfies
            # everything this check saw, and while pop() keeps the hint
            # every marked level is alive and has only grown.
            self._warm_model = outcome.model
            self._warm_marks = tuple(level.mark() for level in self._levels)
        return outcome.result

    def model(self) -> Dict[str, int]:
        """The integer model of the last SAT check.

        Keys are variable names; Ackermann-introduced names for UF
        applications look like ``!f@k`` (see :meth:`app_value`).
        """
        if self._model is None:
            raise RuntimeError("model() requires a preceding SAT check")
        return dict(self._model)

    def app_value(self, app: TApp) -> Optional[int]:
        """Model value of a UF application from the last SAT check."""
        if self._model is None:
            return None
        name = (self._ack.name_of(app) if self.incremental
                else self._app_names.get(app))
        if name is None:
            return None
        return self._model.get(name, 0)

    # ------------------------------------------------------------------
    def _translate_pending(self) -> None:
        """Translate every not-yet-translated assertion into the
        level-tagged clause store (oldest level first, so congruence
        axioms always pair a new application with same-or-older-level
        ones and can be tagged with the new application's level)."""
        stats = self.stats
        for level in self._levels:
            while level.translated < len(level.formulas):
                formula = level.formulas[level.translated]
                level.translated += 1
                t0 = time.perf_counter()
                mark = self._ack.num_apps
                rewritten = self._ack.rewrite_formula(formula)
                level.apps.extend(self._ack.introduced[mark:])
                axioms = self._ack.new_congruence_axioms()
                t1 = time.perf_counter()
                stats.translate_seconds += t1 - t0
                stats.formulas_translated += 1
                stats.congruence_axioms += len(axioms)
                try:
                    for f in (rewritten, *axioms):
                        self._store_clauses(level, self._clausify_counted(f))
                except ClausifyBudgetError:
                    level.poisoned = True
                    stats.clausify_seconds += time.perf_counter() - t1
                    return
                stats.clausify_seconds += time.perf_counter() - t1

    def _clausify_counted(self, formula: Formula):
        """Clausify via the shared cache, attributing the hit/miss to
        *this* solver's stats (thread-correct under concurrent
        solvers)."""
        clauses, was_hit = clausify_probe(formula,
                                          max_clauses=self.max_clauses)
        if was_hit:
            self.stats.clausify_hits += 1
        else:
            self.stats.clausify_misses += 1
        return clauses

    def _store_clauses(self, level: _Level, clauses) -> None:
        for clause in clauses:
            level.nclauses += 1
            if len(clause) == 1:
                try:
                    level.base.extend(canonicalize(clause[0]))
                except TrivialConstraint as t:
                    if not t.truth:
                        level.falsified = True
            elif not clause:
                level.falsified = True
            else:
                level.clauses.append(clause)

    def _check_incremental(self, theory_budget: int, node_budget: int,
                           deadline=None) -> SearchOutcome:
        self._translate_pending()
        if any(level.falsified for level in self._levels):
            return SearchOutcome(UNSAT)
        if any(level.poisoned for level in self._levels):
            logger.warning("check is UNKNOWN: clausify budget exhausted "
                           "(max_clauses=%d)", self.max_clauses)
            return SearchOutcome(UNKNOWN, reason="budget")
        if sum(level.nclauses for level in self._levels) > self.max_clauses:
            logger.warning("check is UNKNOWN: clause store exceeds "
                           "max_clauses=%d", self.max_clauses)
            return SearchOutcome(UNKNOWN, reason="budget")
        t0 = time.perf_counter()
        outcome = search(self._levels,
                         max_theory_checks=theory_budget,
                         node_budget=node_budget,
                         initial_model=self._warm_model,
                         marks=self._warm_marks,
                         deadline=deadline)
        self.stats.search_seconds += time.perf_counter() - t0
        return outcome

    def _check_fresh(self, theory_budget: int, node_budget: int,
                     deadline=None) -> SearchOutcome:
        """The seed's from-scratch pipeline: re-ackermannize and
        re-clausify the whole assertion stack (benchmark baseline)."""
        formulas = self.assertions()
        t0 = time.perf_counter()
        ack = ackermannize(formulas)
        self._app_names = ack.app_names
        t1 = time.perf_counter()
        self.stats.translate_seconds += t1 - t0
        self.stats.formulas_translated += len(formulas)
        self.stats.congruence_axioms += len(ack.congruence)
        try:
            clauses = []
            for f in ack.all_formulas:
                clauses.extend(self._clausify_counted(f))
                if len(clauses) > self.max_clauses:
                    raise ClausifyBudgetError(
                        f"more than {self.max_clauses} clauses")
        except ClausifyBudgetError:
            self.stats.clausify_seconds += time.perf_counter() - t1
            logger.warning("check is UNKNOWN: clausify budget exhausted "
                           "(max_clauses=%d)", self.max_clauses)
            return SearchOutcome(UNKNOWN, reason="budget")
        base: List[Constraint] = []
        pending: List[Clause] = []
        falsified = False
        for clause in clauses:
            if len(clause) == 1:
                try:
                    base.extend(canonicalize(clause[0]))
                except TrivialConstraint as t:
                    if not t.truth:
                        falsified = True
                        break
            else:
                pending.append(clause)
        t2 = time.perf_counter()
        self.stats.clausify_seconds += t2 - t1
        if falsified:
            return SearchOutcome(UNSAT)
        # One level with no marks: the warm model is evaluated whole.
        outcome = search([Level(base, pending)],
                         max_theory_checks=theory_budget,
                         node_budget=node_budget,
                         initial_model=self._warm_model,
                         deadline=deadline)
        self.stats.search_seconds += time.perf_counter() - t2
        return outcome


def prove_distinct(solver: Solver, left: Term, right: Term) -> bool:
    """Convenience: is ``left == right`` impossible under the solver's
    current assertions? (The FormAD exploitation question.)

    Uses push/pop exactly like the paper's ``testVar``.
    """
    solver.push()
    try:
        solver.add(_eq(left, right))
        return solver.check() is UNSAT
    finally:
        solver.pop()


def _eq(left: Term, right: Term) -> FAtom:
    from .terms import Rel
    return FAtom(Rel.EQ, left, right)
