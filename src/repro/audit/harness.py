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

Chaos mode (:func:`chaos_check`) re-analyzes with a fault-injecting
solver: the engine must neither crash (``chaos-crash``) nor mark safe
any array the fault-free baseline did not (``chaos-verdict-upgrade``).
The runner that applies both to a whole unit stream, generated cases and
paper kernels alike, is :mod:`repro.audit.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ad import differentiate_reverse
from ..analysis.activity import ActivityAnalysis
from ..formad import FormADEngine, FormADGuardPolicy
from ..runtime.executor import detect_races
from ..runtime.interp import InterpreterTimeout
from .chaos import ChaosConfig, chaos_factory
from .generator import CaseSpec, build_procedure, make_bindings
from .numcheck import adjoint_bindings, dot_product_check, gradients
from .oracles import run_shadow


@dataclass
class Violation:
    """One observed soundness (or harness-integrity) failure."""

    kind: str
    detail: str


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


@dataclass
class ChaosOutcome:
    """One chaos analysis of one kernel at one fault schedule."""

    injected: int            # faults the chaos solvers struck
    degraded: bool           # any array lost its safe verdict
    violations: List[Violation] = field(default_factory=list)


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------
def _case_extents(spec: CaseSpec) -> Tuple[int, ...]:
    """Trip-count sweep: the spec's own size plus a larger odd one."""
    return (spec.n, 2 * spec.n + 3)


def run_case(index: int, spec: CaseSpec, *,
             deadline=None,
             question_timeout: Optional[float] = None) -> CaseResult:
    """Audit one generated case.

    ``deadline`` bounds the whole case — a hung oracle or pathological
    kernel times out to a *truncated* case (not a violation, not a
    stalled audit); ``question_timeout`` is forwarded to the SMT engine.
    """
    result = CaseResult(index, spec)

    def fail(kind: str, detail: str) -> None:
        result.violations.append(Violation(kind, detail))

    try:
        _run_case_oracles(index, spec, result, fail, deadline=deadline,
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
    return result


def _run_case_oracles(index: int, spec: CaseSpec, result: CaseResult,
                      fail: Callable[[str, str], None], *,
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
                          deadline=deadline,
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
                label: str,
                baseline: Optional[Dict[int, frozenset]] = None,
                deadline=None,
                ) -> ChaosOutcome:
    """Analyze under fault injection and compare to the honest verdicts
    (*baseline*, computed here when not given).

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
    outcome = ChaosOutcome(injected=0, degraded=False)
    try:
        engine = FormADEngine(proc, ActivityAnalysis(proc, independents,
                                                     dependents),
                              solver_factory=factory, deadline=deadline)
        chaotic = _safe_sets(engine.analyze_all())
    except Exception as exc:
        outcome.violations.append(Violation(
            "chaos-crash",
            f"{label} rate {rate}: {type(exc).__name__}: {exc}"))
        return outcome
    outcome.injected = sum(len(s.injected) for s in factory.solvers)
    for uid, safe in chaotic.items():
        upgraded = safe - baseline.get(uid, frozenset())
        if upgraded:
            outcome.violations.append(Violation(
                "chaos-verdict-upgrade",
                f"{label} rate {rate}: loop {uid} marked safe "
                f"{sorted(upgraded)} not in fault-free baseline"))
        if safe < baseline.get(uid, frozenset()):
            outcome.degraded = True
    return outcome
