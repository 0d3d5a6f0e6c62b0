"""The differential soundness-audit harness.

For every generated case (:mod:`repro.audit.generator`) the harness
cross-checks FormAD's static verdicts against concrete execution:

* **Primal contract.** The paper assumes the primal parallelization is
  correct. Deliberately racy families must be caught by the dynamic
  :class:`~repro.runtime.racecheck.RaceDetector` (otherwise the oracle
  itself is broken — ``missed-primal-race``); any other family racing
  is a generator bug (``unexpected-primal-race``). Racy cases skip the
  remaining oracles: FormAD's premise does not hold for them.
* **Oracle A — adjoint races.** Differentiate with the FormAD guard
  policy and run the generated adjoint under the race detector at
  several trip counts. The detector logs every access per element and
  iteration, so its answer is independent of any particular thread
  schedule; a reported race on an array FormAD shared is an
  ``unsound-shared`` violation.
* **Oracle B — concrete witnesses.** Replay the *primal* under the
  :class:`~repro.audit.oracles.AdjointShadowTracer` and search for a
  cross-iteration collision among the future adjoint accesses. A
  collision on a proven-safe array (``safe-verdict-collision``) breaks
  soundness; a SAT verdict is classified ``sat-corroborated`` when a
  collision exists and ``sat-spurious-but-safe`` when it does not
  (e.g. a permutation table the solver rightly cannot assume
  injective).
* **Oracle C — numerics.** The adjoint must pass a finite-difference
  dot-product test and agree with the serial (safeguard-free)
  adjoint's gradient (``numeric-mismatch`` / ``gradient-mismatch``).

Chaos mode re-analyzes with a fault-injecting solver at increasing
failure rates: the engine must neither crash (``chaos-crash``) nor mark
safe any array the fault-free baseline did not (``chaos-verdict-
upgrade``). :func:`chaos_sweep` applies the same check to the four
paper kernels.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ad import differentiate_reverse
from ..analysis.activity import ActivityAnalysis
from ..experiments.specs import ALL_FIGURE_SPECS
from ..formad import FormADEngine, FormADGuardPolicy
from ..obs.tracer import NULL_TRACER, NullTracer
from ..resilience.deadline import per_question
from ..runtime.executor import detect_races
from ..runtime.interp import InterpreterTimeout
from .chaos import ChaosConfig, chaos_factory
from .generator import (CaseSpec, FAMILIES, build_procedure, generate_case,
                        make_bindings)
from .minimize import minimize
from .numcheck import adjoint_bindings, dot_product_check, gradients
from .oracles import run_shadow

#: Report schema identifier (bump on incompatible change).
REPORT_SCHEMA = "repro-audit/1"

#: Default chaos sweep rates (uniformly split across the three kinds).
DEFAULT_CHAOS_RATES = (0.1, 0.25, 0.5, 0.75, 1.0)

#: Classifications of one (loop, array) verdict after oracle B.
CLASSIFICATIONS = ("proven-safe-validated", "sat-corroborated",
                   "sat-spurious-but-safe", "fallback", "skipped-racy")


def _split_rate(rate: float, seed: int) -> ChaosConfig:
    """One sweep rate exercising all three failure kinds at once."""
    return ChaosConfig(unknown_rate=rate / 2, budget_rate=rate / 4,
                       error_rate=rate / 4, seed=seed)


@dataclass
class Violation:
    """One observed soundness (or harness-integrity) failure."""

    kind: str
    case: int                # case index, or -1 for paper-kernel chaos
    family: str
    detail: str
    spec: Optional[CaseSpec] = None
    minimized: Optional[CaseSpec] = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "case": self.case, "family": self.family,
                "detail": self.detail,
                "spec": self.spec.to_json() if self.spec else None,
                "minimized": (self.minimized.to_json()
                              if self.minimized else None)}


@dataclass
class CaseResult:
    index: int
    spec: CaseSpec
    classifications: Dict[str, str] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    primal_racy: bool = False
    #: The per-case deadline expired mid-oracle; the verdicts gathered so
    #: far stand, but the case proves nothing about the oracles it never
    #: reached. Truncation is not a soundness violation.
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        doc = {"index": self.index, "family": self.spec.family,
               "primal_racy": self.primal_racy,
               "classifications": dict(self.classifications),
               "violations": [v.kind for v in self.violations]}
        if self.truncated:
            doc["truncated"] = True
        return doc


@dataclass
class ChaosOutcome:
    """One (kernel, rate) chaos analysis."""

    kernel: str
    rate: float
    injected: int
    degraded: bool           # any array lost its safe verdict
    violations: List[Violation] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"kernel": self.kernel, "rate": self.rate,
                "injected": self.injected, "degraded": self.degraded,
                "violations": [v.kind for v in self.violations]}


@dataclass
class AuditReport:
    seed: int
    count: int
    cases: List[CaseResult] = field(default_factory=list)
    chaos: List[ChaosOutcome] = field(default_factory=list)
    #: Cases skipped because the run deadline expired (``--deadline``).
    #: A truncated audit is still a valid audit of the cases that ran.
    truncated: int = 0

    @property
    def violations(self) -> List[Violation]:
        out = [v for c in self.cases for v in c.violations]
        out += [v for c in self.chaos for v in c.violations]
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def cases_truncated(self) -> int:
        """Cases cut short by the per-case deadline (``--case-timeout``)."""
        return sum(1 for c in self.cases if c.truncated)

    def tally(self) -> Dict[str, int]:
        return tally_classifications(self.cases)

    def to_json(self) -> dict:
        doc = {"schema": REPORT_SCHEMA, "seed": self.seed,
               "count": self.count, "ok": self.ok,
               "truncated": self.truncated,
               "classifications": self.tally(),
               "cases": [c.to_json() for c in self.cases],
               "chaos": [c.to_json() for c in self.chaos],
               "violations": [v.to_json() for v in self.violations]}
        if self.cases_truncated:
            doc["cases_truncated"] = self.cases_truncated
        return doc


def tally_classifications(cases: Sequence[CaseResult]) -> Dict[str, int]:
    """Classification histogram over *cases*.

    The single accounting path: :meth:`AuditReport.tally`, the campaign
    report, and the ``audit.classification.*`` counters all derive from
    this function so they can never disagree.
    """
    counts: Dict[str, int] = {}
    for case in cases:
        for cls in case.classifications.values():
            counts[cls] = counts.get(cls, 0) + 1
    return counts


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------
def _case_extents(spec: CaseSpec) -> Tuple[int, ...]:
    """Trip-count sweep: the spec's own size plus a larger odd one."""
    return (spec.n, 2 * spec.n + 3)


def run_case(index: int, spec: CaseSpec, *,
             tracer: NullTracer = NULL_TRACER,
             deadline=None,
             question_timeout: Optional[float] = None) -> CaseResult:
    """Audit one generated case.

    ``deadline`` bounds the whole case — a hung oracle or pathological
    kernel times out to a *truncated* case (not a violation, not a
    stalled audit); ``question_timeout`` is forwarded to the SMT engine.
    """
    result = CaseResult(index, spec)

    def fail(kind: str, detail: str) -> None:
        result.violations.append(
            Violation(kind, index, spec.family, detail, spec=spec))

    with tracer.span("audit.case", index=index, family=spec.family):
        try:
            _run_case_oracles(index, spec, result, fail, tracer,
                              deadline=deadline,
                              question_timeout=question_timeout)
        except InterpreterTimeout:
            result.truncated = True
        except Exception as exc:  # the harness must survive any case
            if deadline is not None and deadline.expired():
                # Budget exhaustion surfacing through the engine
                # (DeadlineExpired et al.) is truncation, not a crash.
                result.truncated = True
            else:
                fail("analysis-crash", f"{type(exc).__name__}: {exc}")
    tracer.counter("audit.cases")
    if result.violations:
        tracer.counter("audit.violations", len(result.violations))
    if result.truncated:
        tracer.counter("audit.truncated")
    if tracer.enabled:
        tracer.emit("audit_case", case=index, family=spec.family,
                    violations=[v.kind for v in result.violations])
    return result


def _run_case_oracles(index: int, spec: CaseSpec, result: CaseResult,
                      fail: Callable[[str, str], None],
                      tracer: NullTracer = NULL_TRACER, *,
                      deadline=None,
                      question_timeout: Optional[float] = None) -> None:
    proc = build_procedure(spec, name=f"audit_{spec.family}_{index}")
    extents = _case_extents(spec)
    independents, dependents = spec.independents(), spec.dependents()

    # Phase 0: the primal contract.
    for extent in extents:
        bindings = make_bindings(spec, extent)
        report = detect_races(proc, bindings, deadline=deadline)
        if report.races:
            result.primal_racy = True
            if not spec.expect_primal_race:
                fail("unexpected-primal-race",
                     f"extent {extent}: {report.races[0]}")
                return
    if spec.expect_primal_race:
        if not result.primal_racy:
            fail("missed-primal-race",
                 f"no race at extents {extents} despite racy family")
        for array in spec.dependents():
            result.classifications[array] = "skipped-racy"
        return

    # Static analysis.
    engine = FormADEngine(proc, ActivityAnalysis(proc, independents,
                                                 dependents),
                          tracer=tracer, deadline=deadline,
                          question_timeout=question_timeout)
    analyses = engine.analyze_all()

    # Oracle B: concrete collision search among future adjoint accesses.
    shadows = [run_shadow(proc, make_bindings(spec, e), deadline=deadline)
               for e in extents]
    for analysis in analyses:
        uid = analysis.loop.uid
        for array, verdict in analysis.verdicts.items():
            collision = None
            for shadow in shadows:
                collision = shadow.collision(uid, array)
                if collision is not None:
                    break
            if verdict.safe:
                result.classifications[array] = "proven-safe-validated"
                if collision is not None:
                    fail("safe-verdict-collision",
                         f"{array} proven safe but: {collision}")
            elif verdict.reason.startswith("possible conflict"):
                result.classifications[array] = (
                    "sat-corroborated" if collision is not None
                    else "sat-spurious-but-safe")
            else:
                result.classifications[array] = "fallback"

    # Oracle A: the FormAD adjoint must be race-free.
    policy = FormADGuardPolicy(proc, independents, dependents)
    adjoint = differentiate_reverse(proc, independents, dependents,
                                    policy=policy)
    for extent in extents:
        bindings = make_bindings(spec, extent)
        adj_b = adjoint_bindings(adjoint, bindings, independents,
                                 dependents, seed=index)
        report = detect_races(adjoint.procedure, adj_b, deadline=deadline)
        if report.races:
            fail("unsound-shared",
                 f"extent {extent}: adjoint race {report.races[0]}")
            break

    # Oracle C: numerics (dot-product + serial cross-check).
    if independents:
        bindings = make_bindings(spec, spec.n)
        ok, lhs, rhs = dot_product_check(proc, adjoint, bindings,
                                         independents, dependents,
                                         seed=index, deadline=deadline)
        if not ok:
            fail("numeric-mismatch", f"FD={lhs!r} vs adjoint={rhs!r}")
        serial = differentiate_reverse(proc, independents, dependents,
                                       serial=True)
        g_formad = gradients(adjoint, bindings, independents, dependents,
                             seed=index, deadline=deadline)
        g_serial = gradients(serial, bindings, independents, dependents,
                             seed=index, deadline=deadline)
        for name in independents:
            if not np.allclose(g_formad[name], g_serial[name],
                               rtol=1e-8, atol=1e-10):
                fail("gradient-mismatch",
                     f"{name}: formad={g_formad[name]!r} "
                     f"serial={g_serial[name]!r}")
                break


# ----------------------------------------------------------------------
# Chaos: the engine under solver failure
# ----------------------------------------------------------------------
def _safe_sets(analyses) -> Dict[int, frozenset]:
    return {a.loop.uid: frozenset(a.safe_arrays()) for a in analyses}


def chaos_check(proc, independents, dependents, config: ChaosConfig, *,
                label: str, case: int = -1, family: str = "paper-kernel",
                baseline: Optional[Dict[int, frozenset]] = None,
                deadline=None,
                ) -> ChaosOutcome:
    """Analyze under fault injection and compare to the honest verdicts.

    The contract is one-sided: chaos may only *degrade* (arrays drop out
    of the safe set); any array safe under chaos but not in the baseline
    is a soundness violation, and any escaped exception is a crash.

    A fresh :func:`chaos_factory` is built per call — never reuse one
    across calls: ``ChaosSolver`` seeds are derived from the factory's
    construction order, so a shared factory would give every retry and
    every ddmin shrink attempt a *different* fault schedule, making
    minimized repros nondeterministic across interpreters.
    """
    if baseline is None:
        honest = FormADEngine(proc, ActivityAnalysis(proc, independents,
                                                     dependents),
                              deadline=deadline)
        baseline = _safe_sets(honest.analyze_all())
    factory = chaos_factory(config)
    rate = config.unknown_rate + config.budget_rate + config.error_rate
    outcome = ChaosOutcome(kernel=label, rate=rate, injected=0,
                           degraded=False)
    try:
        engine = FormADEngine(proc, ActivityAnalysis(proc, independents,
                                                     dependents),
                              solver_factory=factory, deadline=deadline)
        chaotic = _safe_sets(engine.analyze_all())
    except Exception as exc:
        outcome.violations.append(Violation(
            "chaos-crash", case, family,
            f"{label} rate {rate}: {type(exc).__name__}: {exc}"))
        return outcome
    outcome.injected = sum(len(s.injected) for s in factory.solvers)
    for uid, safe in chaotic.items():
        upgraded = safe - baseline.get(uid, frozenset())
        if upgraded:
            outcome.violations.append(Violation(
                "chaos-verdict-upgrade", case, family,
                f"{label} rate {rate}: loop {uid} marked safe "
                f"{sorted(upgraded)} not in fault-free baseline"))
        if safe < baseline.get(uid, frozenset()):
            outcome.degraded = True
    return outcome


def chaos_sweep(rates: Sequence[float] = DEFAULT_CHAOS_RATES, *,
                seed: int = 0,
                tracer: NullTracer = NULL_TRACER) -> List[ChaosOutcome]:
    """Fault-injection sweep over the four paper kernels."""
    outcomes: List[ChaosOutcome] = []
    for name, make_spec in ALL_FIGURE_SPECS.items():
        spec = make_spec()
        with tracer.span("audit.chaos_kernel", kernel=name):
            honest = FormADEngine(
                spec.proc, ActivityAnalysis(spec.proc, spec.independents,
                                            spec.dependents))
            baseline = _safe_sets(honest.analyze_all())
            for rate in rates:
                outcomes.append(chaos_check(
                    spec.proc, spec.independents, spec.dependents,
                    _split_rate(rate, seed), label=name,
                    baseline=baseline))
    return outcomes


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _reproducer(index: int, kinds: frozenset) -> Callable[[CaseSpec], bool]:
    def reproduces(candidate: CaseSpec) -> bool:
        trial = run_case(index, candidate)
        return bool(kinds & {v.kind for v in trial.violations})
    return reproduces


def run_audit(*, seed: int = 0, count: int = 50,
              families: Sequence[str] = FAMILIES,
              chaos_rates: Optional[Sequence[float]] = None,
              shrink: bool = False,
              tracer: NullTracer = NULL_TRACER,
              progress: Optional[Callable[[CaseResult], None]] = None,
              deadline=None,
              case_timeout: Optional[float] = None,
              question_timeout: Optional[float] = None,
              ) -> AuditReport:
    """Run the full audit: *count* generated cases, then (optionally)
    the paper-kernel chaos sweep. Deterministic for a given seed.

    ``deadline`` (a :class:`repro.resilience.deadline.Deadline`) bounds the
    run: the audit stops cleanly *between* cases when it expires, records
    how many cases were skipped in ``report.truncated``, and the cases
    that did run remain a valid (deterministic-prefix) audit.
    ``case_timeout`` additionally bounds each *case* so one pathological
    kernel truncates itself instead of eating the whole budget.
    """
    report = AuditReport(seed=seed, count=count)
    with tracer.span("audit.run", seed=seed, count=count):
        for index in range(count):
            if deadline is not None and deadline.expired():
                report.truncated = count - index
                break
            spec = generate_case(index, seed=seed, families=tuple(families))
            case_deadline = per_question(deadline, case_timeout)
            result = run_case(index, spec, tracer=tracer,
                              deadline=case_deadline,
                              question_timeout=question_timeout)
            if shrink and result.violations:
                kinds = frozenset(v.kind for v in result.violations)
                small = minimize(spec, _reproducer(index, kinds))
                for violation in result.violations:
                    violation.minimized = small
            report.cases.append(result)
            if progress is not None:
                progress(result)
        for cls, n in tally_classifications(report.cases).items():
            tracer.counter(f"audit.classification.{cls}", n)
        if chaos_rates is not None and not (
                deadline is not None and deadline.expired()):
            report.chaos = chaos_sweep(chaos_rates, seed=seed,
                                       tracer=tracer)
            chaos_violations = sum(len(c.violations) for c in report.chaos)
            if chaos_violations:
                tracer.counter("audit.violations", chaos_violations)
    return report


def format_report(report: AuditReport) -> str:
    """Human-readable audit summary."""
    lines = [f"soundness audit: seed={report.seed} "
             f"cases={len(report.cases)}"]
    per_family: Dict[str, int] = {}
    for case in report.cases:
        per_family[case.spec.family] = per_family.get(case.spec.family, 0) + 1
    lines.append("  families: " + ", ".join(
        f"{name} x{n}" for name, n in sorted(per_family.items())))
    if report.truncated:
        lines.append(f"  truncated: deadline expired, {report.truncated} "
                     f"case(s) skipped")
    if report.cases_truncated:
        lines.append(f"  case timeouts: {report.cases_truncated} case(s) "
                     f"cut short by --case-timeout")
    for cls, n in sorted(report.tally().items()):
        lines.append(f"  {cls:>24}: {n}")
    if report.chaos:
        crashed = sum(1 for c in report.chaos if c.violations)
        degraded = sum(1 for c in report.chaos if c.degraded)
        lines.append(f"  chaos: {len(report.chaos)} kernel-rate runs, "
                     f"{sum(c.injected for c in report.chaos)} faults "
                     f"injected, {degraded} degraded, {crashed} violating")
    if report.ok:
        lines.append("OK: no soundness violations")
    else:
        lines.append(f"FAIL: {len(report.violations)} violation(s)")
        for v in report.violations[:20]:
            lines.append(f"  [{v.kind}] case {v.case} ({v.family}): "
                         f"{v.detail}")
    return "\n".join(lines)
