"""The FormAD engine: buildModel / testVar (paper §5.5).

Phase 1 (*knowledge extraction*) turns the assumed-correct primal
parallelization into per-context disjointness assertions. This module
then builds the context tree's models on **one shared incremental
solver**: a context's model holds the root axiom ``i ≠ i'`` plus every
fact attached to it or inherited from its ancestors, and the solver
reaches each context by push/pop along a DFS of the tree instead of
re-asserting the inherited prefix into a fresh solver per context.
Satisfiability is asserted after every fact addition (a failing check
means the *primal* was racy: :class:`PrimalRaceError`).

Phase 2 (*knowledge exploitation*) derives, for each active shared
array, the index tuples its adjoint will write and read:

* a plain primal **read** becomes an adjoint *increment* (write),
* a plain primal **write** becomes an adjoint *load + zero* (write),
* a primal **exact increment** becomes an adjoint *read only* (§5.4).

For every pair of future adjoint references with at least one write,
the solver is asked — under the knowledge of the pair's common-root
context — whether the primed and unprimed index tuples can coincide.
``UNSAT`` proves the pair conflict-free; anything else (including
solver resource exhaustion) keeps the safeguards in place. Identical
questions under the same common-root context are answered once and
memoized (``AnalysisStats.memo_hits`` counts the cached answers;
``exploitation_checks`` still counts every question asked, so Table-1
query totals are unchanged by the memo).
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.activity import ActivityAnalysis
from ..analysis.references import (AccessKind, ArrayAccess, RegionReferences,
                                   collect_region_references)
from ..cfg.contexts import Context
from ..cfg.instances import number_instances
from ..ir.printer import format_stmt
from ..ir.program import Procedure
from ..ir.stmt import Assign, Loop
from ..obs.tracer import NULL_TRACER, NullTracer
from ..resilience.deadline import Deadline, per_question
from ..resilience.escalate import NO_ESCALATION, EscalationPolicy
from ..smt.intsolver import Result
from ..smt.solver import SAT, UNKNOWN, UNSAT, Solver
from ..smt.terms import And, FAtom, Formula, Rel, Term, formula_vars
from .knowledge import KnowledgeBase, extract_knowledge, is_atomic_access
from .translate import IndexTranslator, UntranslatableError

logger = logging.getLogger(__name__)


class PrimalRaceError(RuntimeError):
    """The knowledge base is inconsistent: the primal parallel loop
    cannot be race-free (or FormAD itself is buggy — paper §5.5)."""


class KnowledgeDegradedError(RuntimeError):
    """buildModel could not establish the knowledge base: a consistency
    check came back UNKNOWN or the solver failed outright. Unlike
    :class:`PrimalRaceError` this says nothing about the primal — the
    engine must degrade to safeguards for every candidate array (the
    soundness bias: an unproven array is never left ``shared``)."""


@dataclass
class AnalysisStats:
    """The Table-1 columns for one analyzed parallel region, plus the
    per-phase performance breakdown.

    ``exploitation_checks`` counts every testVar question *asked*
    (matching the paper's counting); ``memo_hits`` counts the subset
    answered from the question memo instead of the solver, so the
    number of actual solver question checks is
    ``exploitation_checks - memo_hits``.
    """

    time_seconds: float = 0.0
    model_size: int = 0            # assertions incl. the root axiom
    consistency_checks: int = 0    # buildModel's per-add SAT checks
    exploitation_checks: int = 0   # testVar questions asked
    memo_hits: int = 0             # ... of which answered from the memo
    unique_exprs: int = 0
    region_loc: int = 0
    skipped_pairs: int = 0
    # Per-phase solver breakdown (see repro.smt.solver.SolverStats).
    translate_seconds: float = 0.0
    clausify_seconds: float = 0.0
    search_seconds: float = 0.0
    solver_time_seconds: float = 0.0
    theory_checks: int = 0
    search_branches: int = 0
    search_propagations: int = 0
    solver_sat: int = 0
    solver_unsat: int = 0
    solver_unknown: int = 0
    formulas_translated: int = 0
    congruence_axioms: int = 0
    clausify_hits: int = 0
    clausify_misses: int = 0
    # Resilience accounting (docs/RESILIENCE.md). The ``unknown_*``
    # triple is the structured breakdown of ``solver_unknown``;
    # ``timed_out_questions`` counts exploitation questions whose
    # *final* answer (after any escalation) was a deadline expiry;
    # ``escalations`` counts ladder retries.
    unknown_timeout: int = 0
    unknown_budget: int = 0
    unknown_solver: int = 0
    timed_out_questions: int = 0
    escalations: int = 0

    @property
    def queries(self) -> int:
        return self.consistency_checks + self.exploitation_checks

    @property
    def solver_checks(self) -> int:
        """Checks actually answered by the solver (memo hits excluded)."""
        return self.consistency_checks + self.exploitation_checks - self.memo_hits

    #: ``SolverStats`` field -> ``AnalysisStats`` field, for folding
    #: solver counters into this record. Every ``SolverStats`` field
    #: except ``checks`` (recoverable as ``solver_sat + solver_unsat +
    #: solver_unknown``; see ``tests/smt/test_solver_stats_merge.py``
    #: for the audit that keeps this mapping complete).
    SOLVER_FIELD_MAP = (
        ("translate_seconds", "translate_seconds"),
        ("clausify_seconds", "clausify_seconds"),
        ("search_seconds", "search_seconds"),
        ("time_seconds", "solver_time_seconds"),
        ("theory_checks", "theory_checks"),
        ("branches", "search_branches"),
        ("propagations", "search_propagations"),
        ("sat", "solver_sat"),
        ("unsat", "solver_unsat"),
        ("unknown", "solver_unknown"),
        ("formulas_translated", "formulas_translated"),
        ("congruence_axioms", "congruence_axioms"),
        ("clausify_hits", "clausify_hits"),
        ("clausify_misses", "clausify_misses"),
        ("unknown_timeout", "unknown_timeout"),
        ("unknown_budget", "unknown_budget"),
        ("unknown_solver", "unknown_solver"),
    )

    def absorb_solver(self, solver: Solver) -> None:
        """Fold one solver's counters into this record."""
        s = solver.stats
        for src, dst in self.SOLVER_FIELD_MAP:
            setattr(self, dst, getattr(self, dst) + getattr(s, src))


@dataclass
class ArrayVerdict:
    """FormAD's answer for one adjoint array in one region."""

    array: str
    safe: bool
    pairs_total: int = 0
    pairs_proven: int = 0
    reason: str = ""

    def __str__(self) -> str:
        state = "safe (shared)" if self.safe else f"unsafe ({self.reason})"
        return f"{self.array}: {state} [{self.pairs_proven}/{self.pairs_total}]"


@dataclass
class LoopAnalysis:
    """Complete FormAD result for one parallel loop."""

    loop: Loop
    verdicts: Dict[str, ArrayVerdict]
    stats: AnalysisStats
    safe_write_expressions: List[str] = field(default_factory=list)
    offending_expressions: List[str] = field(default_factory=list)
    #: True when this result is a safeguard fallback rather than an
    #: analysis: the knowledge base could not be established, the run
    #: deadline expired before phase 2, or a shard worker died.
    degraded: bool = False
    #: True when this result is eligible for the cross-run verdict
    #: cache: a genuine, *clean* analysis — not degraded, no timed-out
    #: or UNKNOWN questions, no solver failures, and no answers that
    #: were themselves replayed from the store. Only such loops replay
    #: wholesale with counter-identical stats, which is the cache's
    #: byte-identity guarantee (docs/SCALING.md).
    cacheable: bool = False

    def safe_arrays(self) -> Set[str]:
        return {name for name, v in self.verdicts.items() if v.safe}

    @property
    def all_safe(self) -> bool:
        return all(v.safe for v in self.verdicts.values())


@dataclass
class _QuestionRef:
    """One unique future adjoint reference (already translated)."""

    plain: Tuple[Term, ...]
    primed: Tuple[Term, ...]
    context: Context
    rendering: str


@dataclass(frozen=True)
class _EngineConfig:
    """Immutable analysis configuration (see the satellite bugfix note
    on :class:`FormADEngine`: the per-loop result cache keys on the
    loop's uid only, which is sound precisely because this record
    cannot change after construction)."""

    max_theory_checks: int
    node_budget: int
    use_increment_detection: bool
    use_activity: bool
    use_instances: bool
    use_contexts: bool
    incremental: bool
    use_question_memo: bool
    #: Constructor used for every solver the engine builds; receives
    #: the standard ``Solver`` keyword arguments. The audit subsystem
    #: swaps in its fault-injecting ``ChaosSolver`` here.
    solver_factory: Optional[object] = None
    #: Wall-clock cap per exploitation question (seconds); None means
    #: only the run deadline (if any) applies.
    question_timeout: Optional[float] = None
    #: Retry ladder for timed-out / budget-exhausted questions. The
    #: default never retries, so runs without resilience flags are
    #: byte-identical to builds without the resilience layer.
    escalation: EscalationPolicy = NO_ESCALATION


class _ZeroInstances:
    """Degenerate instance numbering for the §5.2 ablation: every use
    of a variable maps to instance 0."""

    def instance_at(self, stmt, var: str) -> int:
        return 0

    def qualified_name(self, stmt, var: str) -> str:
        return f"{var}_0"


class _ContextModel:
    """The paper's buildModel on one shared incremental solver.

    The seed built one solver per context, re-asserting the inherited
    prefix each time and re-translating the whole stack on every check.
    Here a single solver walks the context tree: the root axiom and the
    root context's facts live at the solver's base level, every deeper
    context is one push level holding its own facts, and navigation
    between contexts pops up to the common ancestor and pushes back
    down. With the incremental solver this makes each consistency check
    translate one new fact and each exploitation question translate only
    the question.
    """

    def __init__(self, solver: Solver, axiom: FAtom,
                 facts_by_context: Dict[int, List],
                 stats: AnalysisStats) -> None:
        self._solver = solver
        self._facts = facts_by_context
        self._stats = stats
        self._path: List[Context] = []
        solver.add(axiom)

    def build(self, root: Context) -> None:
        """DFS consistency pass: every fact is asserted exactly once in
        its owning context, with a satisfiability safeguard check after
        each addition (the paper's recursive buildModel)."""
        self._add_facts(root, check=True)

        def rec(ctx: Context) -> None:
            for child in ctx.children:
                self._solver.push()
                self._add_facts(child, check=True)
                rec(child)
                self._solver.pop()

        rec(root)
        self._path = [root]

    def ask(self, ctx: Context, question: Formula, *,
            deadline: Optional[Deadline] = None,
            budget_scale: float = 1.0,
            ) -> Tuple[Result, Optional[Dict[str, int]], Optional[str]]:
        """Answer one exploitation question under *ctx*'s knowledge.

        Returns ``(result, witness, reason)``: for SAT answers the
        witness model — the concrete counter/scalar values under which
        the two adjoint references collide (the provenance trail's
        counterexample) — and for UNKNOWN answers the structured
        reason (timeout / budget / solver-unknown). ``deadline`` caps
        this one question; ``budget_scale`` is the escalation ladder's
        retry-with-bigger-budgets knob."""
        self._navigate(ctx)
        solver = self._solver
        solver.push()
        try:
            solver.add(question)
            result = solver.check(deadline=deadline,
                                  budget_scale=budget_scale)
            witness = solver.model() if result is SAT else None
            reason = (getattr(solver, "last_unknown_reason", None)
                      if result is UNKNOWN else None)
            return result, witness, reason
        finally:
            solver.pop()

    # ------------------------------------------------------------------
    def _add_facts(self, ctx: Context, check: bool) -> None:
        for fact in self._facts.get(ctx.uid, []):
            self._solver.add(fact.formula)
            if check:
                self._stats.consistency_checks += 1
                try:
                    result = self._solver.check()
                except Exception as exc:
                    # Solver failure (budget blown, injected fault, bug)
                    # is NOT evidence of a primal race — degrade to
                    # safeguards instead of accusing the input.
                    raise KnowledgeDegradedError(
                        f"solver failure during buildModel at {fact}: "
                        f"{exc}") from exc
                if result is UNSAT:
                    raise PrimalRaceError(
                        f"inconsistent knowledge while adding {fact}: the "
                        f"primal parallel loop cannot be correctly "
                        f"parallelized")
                if result is not SAT:
                    reason = getattr(self._solver, "last_unknown_reason",
                                     None) or "solver-unknown"
                    raise KnowledgeDegradedError(
                        f"consistency check UNKNOWN ({reason}) while "
                        f"adding {fact}")

    def _navigate(self, ctx: Context) -> None:
        """Pop/push the solver to *ctx*'s model state. Re-descending
        re-asserts facts without consistency checks — they were proven
        consistent during :meth:`build`."""
        target = list(ctx.ancestors())
        target.reverse()                 # root ... ctx
        keep = 0
        limit = min(len(self._path), len(target))
        while keep < limit and self._path[keep] is target[keep]:
            keep += 1
        keep = max(keep, 1)              # the root level is never popped
        while len(self._path) > keep:
            self._solver.pop()
            self._path.pop()
        for c in target[len(self._path):]:
            self._solver.push()
            self._path.append(c)
            self._add_facts(c, check=False)


class FormADEngine:
    """Analyzes the parallel loops of one procedure.

    The ``use_*`` flags disable individual analysis ingredients for
    ablation studies (see ``benchmarks/test_ablations.py``):

    * ``use_increment_detection`` — §5.4: with it off, primal exact
      increments are treated as plain read+write, so their adjoints
      count as writes and the pair count grows;
    * ``use_activity`` — §5.4: with it off, every real array is tested,
      not only the active ones;
    * ``use_instances`` — §5.2: with it off, every use of a scalar gets
      instance 0. **Unsound** — knowledge about one definition would be
      applied to another; kept only to demonstrate why the paper needs
      instance numbering (the tests show a wrong proof without it);
    * ``use_contexts`` — §5.1: with it off, all knowledge attaches to
      the root context. **Unsound** for may-executed branches, kept for
      the same demonstrative purpose.

    Performance knobs: ``incremental`` selects the incremental solver
    pipeline (the from-scratch baseline is kept for benchmarking), and
    ``use_question_memo`` enables the per-region (common-root context,
    question) → result memo.

    All configuration is **immutable after construction** — the flags
    are read-only properties over a frozen record. This is what makes
    the per-loop result cache (keyed on ``loop.uid`` alone) sound: a
    cached :class:`LoopAnalysis` can never describe a different flag
    combination than the engine's current one. To analyze under other
    flags, build another engine.
    """

    def __init__(
        self,
        proc: Procedure,
        activity: ActivityAnalysis,
        *,
        max_theory_checks: int = 20000,
        node_budget: int = 2000,
        use_increment_detection: bool = True,
        use_activity: bool = True,
        use_instances: bool = True,
        use_contexts: bool = True,
        incremental: bool = True,
        use_question_memo: bool = True,
        solver_factory=None,
        tracer: NullTracer = NULL_TRACER,
        deadline: Optional[Deadline] = None,
        question_timeout: Optional[float] = None,
        escalation: Optional[EscalationPolicy] = None,
        cache=None,
    ) -> None:
        self.proc = proc
        self.activity = activity
        self.tracer = tracer
        self._config = _EngineConfig(
            max_theory_checks=max_theory_checks,
            node_budget=node_budget,
            use_increment_detection=use_increment_detection,
            use_activity=use_activity,
            use_instances=use_instances,
            use_contexts=use_contexts,
            incremental=incremental,
            use_question_memo=use_question_memo,
            solver_factory=solver_factory,
            question_timeout=question_timeout,
            escalation=escalation or NO_ESCALATION,
        )
        # Run state, deliberately outside the frozen config: the
        # deadline is a live clock and the run-state store is an I/O
        # seam (see docs/RESILIENCE.md). They can only ever turn
        # verdicts into UNKNOWN or replay identical ones, so the
        # per-loop result cache stays sound.
        self._deadline = deadline
        self._vcache = cache
        self._loop_keys: Dict[int, str] = {
            loop.uid: f"{ordinal}:{loop.var}"
            for ordinal, loop in enumerate(proc.parallel_loops())}
        self._cache: Dict[int, LoopAnalysis] = {}
        self._cache_lock = threading.Lock()

    # Read-only views of the frozen configuration.
    @property
    def max_theory_checks(self) -> int:
        return self._config.max_theory_checks

    @property
    def node_budget(self) -> int:
        return self._config.node_budget

    @property
    def use_increment_detection(self) -> bool:
        return self._config.use_increment_detection

    @property
    def use_activity(self) -> bool:
        return self._config.use_activity

    @property
    def use_instances(self) -> bool:
        return self._config.use_instances

    @property
    def use_contexts(self) -> bool:
        return self._config.use_contexts

    @property
    def incremental(self) -> bool:
        return self._config.incremental

    @property
    def use_question_memo(self) -> bool:
        return self._config.use_question_memo

    @property
    def question_timeout(self) -> Optional[float]:
        return self._config.question_timeout

    @property
    def escalation(self) -> EscalationPolicy:
        return self._config.escalation

    @property
    def deadline(self) -> Optional[Deadline]:
        return self._deadline

    def attach_run_state(self, *, cache=None, deadline=None) -> None:
        """Late-bind the run-state store and/or run deadline.

        The CLI needs this ordering seam: the store's fingerprint is
        computed from :meth:`fingerprint_flags`, which needs a
        constructed engine. Both are run state, not configuration (see
        ``__init__``), so binding them late cannot invalidate the
        per-loop result cache — but attach the store before the first
        ``analyze_loop`` call or early loops go unrecorded. The shard
        workers of ``analyze --jobs`` rebind ``deadline`` per shard
        request: the parent ships the remaining run budget with every
        request, and a fresh :class:`Deadline` anchors it to the
        worker's own clock.
        """
        if cache is not None:
            self._vcache = cache
        if deadline is not None:
            self._deadline = deadline

    def loop_key(self, loop: Loop) -> str:
        """The structural store key of *loop* (``"<ordinal>:<var>"`` —
        stable across processes, unlike ``loop.uid``)."""
        return self._loop_keys[loop.uid]

    def fingerprint_flags(self) -> Dict[str, object]:
        """The configuration flags that shape the question stream —
        folded into the store fingerprint so stored records are only
        ever replayed into an identically-configured analysis.
        Deadlines, timeouts, and escalation are deliberately excluded:
        rerunning an interrupted run with a *longer* deadline is the
        intended recovery flow, and replayed SAT/UNSAT answers stay
        sound under any resource configuration."""
        return {
            "max_theory_checks": self.max_theory_checks,
            "node_budget": self.node_budget,
            "use_increment_detection": self.use_increment_detection,
            "use_activity": self.use_activity,
            "use_instances": self.use_instances,
            "use_contexts": self.use_contexts,
            "incremental": self.incremental,
            "use_question_memo": self.use_question_memo,
        }

    def analyze_all(self) -> List[LoopAnalysis]:
        """Analyze every parallel loop of the procedure, in loop order.
        (``analyze --jobs N`` fans the loops out over worker processes
        instead: :func:`repro.resilience.shards.analyze_sharded`.)"""
        return [self.analyze_loop(loop)
                for loop in self.proc.parallel_loops()]

    def analyze_loop(self, loop: Loop) -> LoopAnalysis:
        with self._cache_lock:
            cached = self._cache.get(loop.uid)
        if cached is None:
            analysis = self._replay_cached(loop)
            if analysis is None:
                analysis = self._analyze(loop)
            with self._cache_lock:
                cached = self._cache.setdefault(loop.uid, analysis)
        return cached

    def _replay_cached(self, loop: Loop) -> Optional[LoopAnalysis]:
        """The ``--cache-dir`` fast path: rebuild a loop the run-state
        store holds as fully settled *and clean*. The store keeps only
        clean loops with their complete counters, so the replay is
        presented (and JSON-serialized) exactly as the cold analysis
        was (docs/SCALING.md)."""
        if self._vcache is None:
            return None
        key = self.loop_key(loop)
        done = self._vcache.loop_done(key)
        if done is None or done.get("degraded"):
            return None
        from ..resilience.journal import rebuild_analysis
        analysis = rebuild_analysis(loop, done, self._vcache.verdicts(key))
        # The cache stores only clean loops, so the replay *is* settled
        # clean knowledge: warm and cold runs report it alike.
        analysis.cacheable = True
        self._vcache.loop_hits += 1
        logger.info("loop over %r: replayed settled verdicts from the "
                    "cross-run cache", loop.var)
        if self.tracer.enabled:
            self.tracer.emit("cached", loop=loop.var)
        return analysis

    def knowledge(self, loop: Loop) -> Tuple[FAtom, KnowledgeBase]:
        """Phase-1 output for *loop*: the root axiom and the knowledge
        base (exposed for tests and tooling, e.g. the incremental-solver
        property harness)."""
        refs, translator, kb, axiom = self._extract(loop)
        return axiom, kb

    # ------------------------------------------------------------------
    def _new_solver(self) -> Solver:
        factory = self._config.solver_factory or Solver
        return factory(max_theory_checks=self.max_theory_checks,
                       node_budget=self.node_budget,
                       incremental=self.incremental,
                       tracer=self.tracer,
                       deadline=self._deadline)

    def _extract(self, loop: Loop):
        """Shared phase-1 setup: references, translator, knowledge."""
        refs = collect_region_references(loop.body)
        if self.use_instances:
            instancer = number_instances(loop.body, list(self.proc.scalars()))
        else:
            instancer = _ZeroInstances()
        assigned_scalars = self._scalars_assigned_in(loop)
        primed = frozenset(loop.private_names() | assigned_scalars)
        written_arrays = frozenset(
            name for name in refs.arrays()
            if any(a.kind.is_write for a in refs.of_array(name)))
        translator = IndexTranslator(instancer, primed, written_arrays)
        kb = extract_knowledge(refs, translator,
                               use_contexts=self.use_contexts)
        axiom = self._root_axiom(loop, translator)
        return refs, translator, kb, axiom

    def _analyze(self, loop: Loop) -> LoopAnalysis:
        with self.tracer.span("analysis.loop", loop=loop.var, uid=loop.uid):
            return self._analyze_traced(loop)

    def _analyze_traced(self, loop: Loop, phase: Optional[str] = None,
                        reason: str = "") -> LoopAnalysis:
        """The per-loop pass: buildModel, then testVar for every
        candidate array. A loop that degrades before the pass
        (:meth:`degraded_analysis`: *phase* and *reason* set) or inside
        it (buildModel raises :class:`KnowledgeDegradedError`) goes on
        through the same testVar, which counts and traces every planned
        question as UNKNOWN without solving, so the Table-1 totals and
        the provenance trail do not depend on where a fault struck."""
        start = time.perf_counter()
        tracer = self.tracer
        stats = AnalysisStats()
        refs, translator, kb, axiom = self._extract(loop)
        stats.skipped_pairs = kb.skipped_pairs
        stats.model_size = 1 + kb.size
        logger.debug("loop over %r: %d knowledge facts, %d pairs skipped",
                     loop.var, kb.size, kb.skipped_pairs)

        solver: Optional[Solver] = None
        model: Optional[_ContextModel] = None
        # The reason every verdict of a degraded loop carries.
        degraded = None if phase is None else reason
        if phase is None:
            if tracer.enabled:
                for fact in kb.facts:
                    tracer.emit("fact", loop=loop.var,
                                context=fact.context.path(),
                                array=fact.source_array,
                                formula=str(fact.formula))
            solver = self._new_solver()
            by_context: Dict[int, List] = {}
            for fact in kb.facts:
                by_context.setdefault(fact.context.uid, []).append(fact)
            model = _ContextModel(solver, axiom, by_context, stats)
            with tracer.span("analysis.build_model", loop=loop.var):
                try:
                    model.build(refs.contexts.root)
                except KnowledgeDegradedError as exc:
                    # The knowledge base could not be established
                    # (solver failure/UNKNOWN, not a primal race).
                    phase, reason = "build_model", str(exc)
                    degraded = f"knowledge degraded: {exc}"
        if degraded is not None:
            # Every candidate array keeps its safeguard. Never crash,
            # never share.
            logger.warning("loop over %r: degraded in %s (%s); all "
                           "candidate arrays keep their safeguards",
                           loop.var, phase, reason)
            if tracer.enabled:
                tracer.emit("degraded", loop=loop.var, phase=phase,
                            reason=reason)

        verdicts: Dict[str, ArrayVerdict] = {}
        offending: List[str] = []
        memo: Optional[Dict[Tuple[int, Formula],
                            Tuple[Result, Optional[Dict[str, int]]]]] = (
            {} if self.use_question_memo and degraded is None else None)
        # Loop health, for the verdict cache's cleanliness rule: any
        # contained solver failure or cache-replayed answer makes the
        # loop's counters non-canonical, so it must not be stored.
        health = {"failures": 0, "cached": 0}
        for array in self._candidate_arrays(refs):
            with (tracer.span("analysis.array", loop=loop.var, array=array)
                  if degraded is None else nullcontext()):
                verdict = self._test_array(
                    loop, array, refs, translator, model, memo, stats,
                    offending, health, degraded)
            verdicts[array] = verdict
            logger.debug("loop over %r: %s", loop.var, verdict)
            if tracer.enabled:
                tracer.emit("verdict", loop=loop.var, array=array,
                            safe=verdict.safe,
                            pairs_total=verdict.pairs_total,
                            pairs_proven=verdict.pairs_proven,
                            reason=verdict.reason)

        # The paper's LBM listing: the known-safe write expressions
        # extracted from the primal. Their number is Table 1's "unique
        # index expressions included in the model" (LBM: 19) — the
        # knowledge side, not the question expressions.
        safe_writes = list(dict.fromkeys(fact.right_rendering
                                         for fact in kb.facts))
        stats.unique_exprs = len(safe_writes)
        stats.region_loc = max(0, len(format_stmt(loop)) - 2)
        if solver is not None:
            stats.absorb_solver(solver)
        stats.time_seconds = time.perf_counter() - start
        logger.info(
            "analyzed loop over %r: %d/%d arrays safe, %d queries "
            "(%d memo hits) in %.3fs", loop.var,
            sum(v.safe for v in verdicts.values()), len(verdicts),
            stats.queries, stats.memo_hits, stats.time_seconds)
        analysis = LoopAnalysis(loop, verdicts, stats, safe_writes,
                                offending, degraded=degraded is not None)
        analysis.cacheable = (degraded is None
                              and health["failures"] == 0
                              and health["cached"] == 0
                              and stats.timed_out_questions == 0
                              and stats.solver_unknown == 0)
        if self._vcache is not None and analysis.cacheable:
            from ..resilience.journal import serialize_analysis
            key = self.loop_key(loop)
            self._vcache.store_loop(key, **serialize_analysis(key, analysis))
        return analysis

    def _candidate_arrays(self, refs: RegionReferences) -> List[str]:
        """The arrays whose adjoints this region must prove or guard:
        active arrays (or every real array with §5.4 activity ablated)."""
        from ..ir.types import Kind
        out: List[str] = []
        for array in refs.arrays():
            if self.use_activity:
                if array not in self.activity.active:
                    continue
            elif not (self.proc.has_symbol(array)
                      and self.proc.type_of(array).kind is Kind.REAL):
                continue
            out.append(array)
        return out

    def _scalars_assigned_in(self, loop: Loop) -> Set[str]:
        from ..ir.expr import Var
        from ..ir.stmt import walk_stmts
        out: Set[str] = set()
        for stmt in walk_stmts(loop.body):
            if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
                out.add(stmt.target.name)
            elif isinstance(stmt, Loop):
                out.add(stmt.var)
        return out

    def _root_axiom(self, loop: Loop, translator: IndexTranslator) -> FAtom:
        """``i' ≠ i``: two threads never share a counter value (§5.3)."""
        from ..ir.expr import Var
        body = loop.body
        if body:
            stmt = body[0]
            plain = translator.translate(Var(loop.var), stmt, primed=False)
            prime = translator.translate(Var(loop.var), stmt, primed=True)
        else:  # pragma: no cover - empty parallel loops are pointless
            from ..smt.terms import TVar
            plain, prime = TVar(f"{loop.var}_0"), TVar(f"{loop.var}_0'")
        return FAtom(Rel.NE, prime, plain)

    def _adjoint_refs(
        self, array: str, refs: RegionReferences, translator: IndexTranslator,
    ) -> Tuple[List[_QuestionRef], List[_QuestionRef]]:
        """Future adjoint (writes, reads) for one array, deduplicated by
        rendered index tuple + context."""
        writes: List[_QuestionRef] = []
        reads: List[_QuestionRef] = []
        seen: Set[Tuple[str, int, bool]] = set()
        for access in refs.of_array(array):
            if is_atomic_access(access):
                raise UntranslatableError(
                    f"atomic primal access to active array {array!r}")
            plain, rendering = translator.translate_access(access,
                                                          primed=False)
            prime, _ = translator.translate_access(access, primed=True)
            ctx = (refs.context_of(access) if self.use_contexts
                   else refs.contexts.root)
            # §5.4: primal exact increments yield read-only adjoints.
            # With increment detection ablated they count as writes too.
            is_write = access.kind in (AccessKind.READ, AccessKind.WRITE) \
                or not self.use_increment_detection
            key = (rendering, ctx.uid, is_write)
            if key in seen:
                continue
            seen.add(key)
            q = _QuestionRef(plain, prime, ctx, rendering)
            # read -> adjoint increment (write); write -> adjoint zero
            # (write); increment -> adjoint read (§5.4).
            if is_write:
                writes.append(q)
            else:
                reads.append(q)
        return writes, reads

    @staticmethod
    def _memo_key(ctx: Context, question: Formula) -> Tuple[int, Formula]:
        """Question-memo key: the context's *stable* uid plus the
        question formula. Never ``id(ctx)`` — CPython reuses addresses
        of collected objects, so an id-keyed memo can serve the verdict
        of a dead context to a new one that happens to be allocated at
        the same address (PR-3 regression: tests/formad/test_memo.py)."""
        return (ctx.uid, question)

    @staticmethod
    def _question_pairs(
        writes: List[_QuestionRef], reads: List[_QuestionRef],
    ) -> List[Tuple[_QuestionRef, _QuestionRef]]:
        """Every adjoint reference pair with at least one write."""
        pairs: List[Tuple[_QuestionRef, _QuestionRef]] = []
        for i, w in enumerate(writes):
            for other in writes[i:]:
                pairs.append((w, other))
            for r in reads:
                pairs.append((w, r))
        return pairs

    def _ask_escalating(
        self,
        model: _ContextModel,
        ctx: Context,
        question: Formula,
        stats: AnalysisStats,
        qkey: str,
        array: str,
    ) -> Tuple[Result, Optional[Dict[str, int]], Optional[str],
               Optional[str], int]:
        """Ask one question under the resilience policy.

        Returns ``(result, witness, reason, failure, attempts)``. The
        first ask runs with unscaled budgets; UNKNOWNs whose reason is
        retryable (timeout / budget) climb the escalation ladder with
        enlarged budgets and a fresh per-question deadline, until the
        ladder or the run deadline is exhausted. Solver exceptions are
        contained as UNKNOWN and never retried.
        """
        run_deadline = self._deadline
        if run_deadline is not None and run_deadline.expired():
            # The run is out of time: answer without touching the
            # solver (still counted and traced by the caller, so the
            # question totals never depend on when time ran out).
            return UNKNOWN, None, "timeout", None, 0
        policy = self._config.escalation
        scales: List[float] = [1.0]
        if policy.enabled:
            scales.extend(policy.scales(qkey))
        result: Result = UNKNOWN
        witness: Optional[Dict[str, int]] = None
        reason: Optional[str] = None
        failure: Optional[str] = None
        attempts = 0
        for index, scale in enumerate(scales):
            if index > 0:
                if run_deadline is not None and run_deadline.expired():
                    break
                stats.escalations += 1
            attempts += 1
            deadline = per_question(run_deadline,
                                    self._config.question_timeout)
            try:
                result, witness, reason = model.ask(
                    ctx, question, deadline=deadline, budget_scale=scale)
            except Exception as exc:
                # A solver crash on one question must neither kill the
                # analysis nor leave the array shared; treat it as an
                # unanswerable (UNKNOWN) question. Never memoized or
                # retried: a fresh run may succeed.
                result, witness, reason = UNKNOWN, None, None
                failure = f"{type(exc).__name__}: {exc}"
                logger.warning("solver failure on exploitation question "
                               "for %r: %s", array, failure)
                break
            if result is not UNKNOWN:
                break
            if not (policy.enabled and reason is not None
                    and policy.retryable(reason)):
                break
        return result, witness, reason, failure, attempts

    def degraded_analysis(self, loop: Loop, reason: str, *,
                          phase: str = "worker") -> LoopAnalysis:
        """A complete safeguards-only :class:`LoopAnalysis` for *loop*,
        produced without touching the solver, the question memo or the
        run-state store.

        The shard scheduler calls this in the parent process when a
        worker crashes, hangs past its kill timeout, or is OOM-killed
        (*phase* ``worker``), or when the run deadline expired before
        the loop's shard was dispatched (``deadline``): the loop's
        result becomes "every candidate array keeps its safeguard",
        with the planned question counts so the Table-1 totals stay
        fault-independent.
        """
        return self._analyze_traced(loop, phase, reason)

    def _test_array(
        self,
        loop: Loop,
        array: str,
        refs: RegionReferences,
        translator: IndexTranslator,
        model: Optional[_ContextModel],
        memo: Optional[Dict[Tuple[int, Formula],
                            Tuple[Result, Optional[Dict[str, int]]]]],
        stats: AnalysisStats,
        offending: List[str],
        health: Dict[str, int],
        degraded: Optional[str] = None,
    ) -> ArrayVerdict:
        """testVar for one array. With a *degraded* reason (and no
        *model* or *memo*) the verdict starts unsafe with that reason,
        and every planned question is counted and traced as UNKNOWN
        without touching the solver, the question memo or the
        run-state store."""
        tracer = self.tracer
        loop_key = self.loop_key(loop)
        try:
            writes, reads = self._adjoint_refs(array, refs, translator)
        except UntranslatableError as exc:
            return ArrayVerdict(array, False, reason=str(exc))
        pairs = self._question_pairs(writes, reads)
        verdict = ArrayVerdict(array, degraded is None,
                               pairs_total=len(pairs),
                               reason=degraded or "")
        for w, other in pairs:
            if len(w.plain) != len(other.plain):
                verdict.safe = False
                verdict.reason = "rank mismatch"
                break
            ctx = w.context.common_root(other.context)
            question = And(*[FAtom(Rel.EQ, lp, r)
                             for lp, r in zip(w.primed, other.plain)])
            stats.exploitation_checks += 1
            key = self._memo_key(ctx, question)
            entry = memo.get(key) if memo is not None else None
            memo_hit = entry is not None
            asked = 0.0
            failure: Optional[str] = None
            reason: Optional[str] = None
            attempts = 0
            cached = False
            if degraded is not None:
                result, witness = UNKNOWN, None
            elif memo_hit:
                stats.memo_hits += 1
                result, witness = entry
            else:
                hit = (self._vcache.question(loop_key, ctx.path(),
                                             str(question))
                       if self._vcache is not None else None)
                if hit is not None:
                    # Decided in an earlier run with the same
                    # fingerprint: answer from the store (SAT/UNSAT
                    # only; an UNKNOWN is always re-asked).
                    result = SAT if hit[0] == "sat" else UNSAT
                    witness = hit[1]
                    cached = True
                    health["cached"] += 1
                else:
                    asked = time.perf_counter()
                    result, witness, reason, failure, attempts = \
                        self._ask_escalating(model, ctx, question, stats,
                                             f"{loop_key}/{array}/"
                                             f"{question}", array)
                    asked = time.perf_counter() - asked
                if failure is not None:
                    health["failures"] += 1
                if memo is not None and failure is None and \
                        not (result is UNKNOWN and reason == "timeout"):
                    # Timeout UNKNOWNs are never memoized: a later
                    # identical question may still have time to run.
                    memo[key] = (result, witness)
                if self._vcache is not None and not cached \
                        and failure is None and result is not UNKNOWN:
                    self._vcache.store_question(
                        loop_key, array, ctx.path(), str(question),
                        result.name.lower(),
                        witness if result is SAT else None)
            if result is UNKNOWN and reason == "timeout":
                stats.timed_out_questions += 1
            if tracer.enabled:
                # One provenance record per exploitation question: the
                # trail `repro explain` replays into a proof chain.
                extra = {}
                if witness is not None and result is not UNSAT:
                    extra["witness"] = witness
                if failure is not None:
                    extra["failure"] = failure
                if result is UNKNOWN and reason is not None:
                    extra["reason"] = reason
                if attempts > 1:
                    extra["attempts"] = attempts
                if cached:
                    extra["cached"] = True
                tracer.emit("question", loop=loop.var, array=array,
                            context=ctx.path(), write=w.rendering,
                            other=other.rendering, question=str(question),
                            instances=sorted(formula_vars(question)),
                            result=result.name, memo_hit=memo_hit,
                            dur_s=asked, **extra)
            if result is UNSAT:
                verdict.pairs_proven += 1
                continue
            verdict.safe = False
            if result is SAT:
                verdict.reason = (f"possible conflict between "
                                  f"{w.rendering} and {other.rendering}")
                offending.append(other.rendering)
                break
            # UNKNOWN (resource exhaustion, a deadline expiry, or an
            # injected/solver failure) is not a witness: the array
            # keeps its safeguard, but the remaining questions are
            # still asked so the Table-1 question count is independent
            # of where a solver fault strikes (and the provenance
            # trail stays complete).
            if not verdict.reason:
                if failure is not None:
                    verdict.reason = (f"solver failure on {w.rendering} vs "
                                      f"{other.rendering}: {failure}")
                elif reason == "timeout":
                    verdict.reason = (f"solver timeout on {w.rendering} vs "
                                      f"{other.rendering}")
                else:
                    verdict.reason = (f"solver UNKNOWN on {w.rendering} vs "
                                      f"{other.rendering}")
        return verdict
