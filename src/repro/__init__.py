"""FormAD reproduction: automatic differentiation of parallel loops
with formal methods (Hückelheim & Hascoët, ICPP 2022).

The top-level API covers the common workflow::

    from repro import parse_procedure, differentiate, analyze_formad

    proc = parse_procedure(source)            # Fortran-flavored input
    result = differentiate(proc, ["x"], ["y"], strategy="formad")
    print(format_procedure(result.procedure)) # the adjoint code

Strategies mirror the paper's program versions — ``"serial"``,
``"atomic"``, ``"reduction"``, ``"formad"`` (and ``"shared"``, which
drops every safeguard without proof — only for experiments) — plus the
related-work safeguards ``"preaccumulate"`` and ``"transposed"`` from
the pluggable registry in :mod:`repro.ad.strategies`.
"""

import logging
from typing import List, Optional, Sequence

from .ir import (Procedure, Program, ProcedureBuilder, format_procedure,
                 parse_expression, parse_procedure, parse_program, validate)
from .obs.tracer import (NULL_TRACER, CollectingTracer, JsonlTracer,
                         NullTracer, Tracer)
from .ad import (ALL_ATOMIC, ALL_PREACCUMULATE, ALL_REDUCTION, ALL_SHARED,
                 ALL_TRANSPOSED, ConstantPolicy, GuardPolicy, ReverseResult,
                 SafeguardStrategy, TangentResult, differentiate_reverse,
                 differentiate_tangent, get_strategy, register_strategy,
                 registered_strategies, resolve_strategy, strategy_names)
from .analysis import ActivityAnalysis
from .formad import (AnalysisReport, FormADEngine, FormADGuardPolicy,
                     LoopAnalysis, PrimalRaceError, format_table1)
from .runtime import (BROADWELL_18, MachineModel, Memory, detect_races,
                      profile_run, run_procedure, simulate_thread_sweep)

__version__ = "1.0.0"

# Library convention: the `repro` root logger stays silent unless the
# application configures handlers (the CLI's --log-level does).
logging.getLogger(__name__).addHandler(logging.NullHandler())

#: Strategy names accepted by :func:`differentiate`.
STRATEGIES = ("serial", "atomic", "reduction", "shared", "formad",
              "preaccumulate", "transposed")


def differentiate(
    proc: Procedure,
    independents: Sequence[str],
    dependents: Sequence[str],
    *,
    strategy: str = "formad",
    fallback: str = "atomic",
) -> ReverseResult:
    """Reverse-differentiate *proc* with the given safeguard strategy.

    ``strategy`` is one of :data:`STRATEGIES`; ``fallback`` names the
    registered safeguard used for arrays the requested strategy cannot
    handle (for ``"formad"``: arrays whose safety could not be proven).
    Arrays a fixed strategy's applicability predicate rejects always
    fall back to atomics.
    """
    if strategy == "serial":
        return differentiate_reverse(proc, independents, dependents,
                                     serial=True)
    if strategy == "formad":
        policy = FormADGuardPolicy(proc, independents, dependents,
                                   fallback=fallback)
        return differentiate_reverse(proc, independents, dependents,
                                     policy=policy)
    if strategy in STRATEGIES:
        policy = ConstantPolicy(get_strategy(strategy))
        return differentiate_reverse(proc, independents, dependents,
                                     policy=policy)
    raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")


def analyze_formad(
    proc: Procedure,
    independents: Sequence[str],
    dependents: Sequence[str],
    *,
    tracer: NullTracer = NULL_TRACER,
    deadline=None,
    question_timeout: Optional[float] = None,
    escalation=None,
) -> List[LoopAnalysis]:
    """Run the FormAD analysis on every parallel loop of *proc*.

    ``tracer`` receives the structured provenance/span event stream
    (see :mod:`repro.obs`); the no-op default records nothing.

    The resilience knobs (all optional, see docs/RESILIENCE.md):
    ``deadline`` (a :class:`repro.resilience.deadline.Deadline`) bounds
    the whole run in wall-clock time, ``question_timeout`` each
    exploitation question; ``escalation`` (an :class:`repro.resilience.
    escalate.EscalationPolicy`) retries timed-out questions with
    enlarged budgets.
    """
    activity = ActivityAnalysis(proc, independents, dependents)
    engine = FormADEngine(proc, activity, tracer=tracer, deadline=deadline,
                          question_timeout=question_timeout,
                          escalation=escalation)
    return engine.analyze_all()


__all__ = [
    "Procedure", "Program", "ProcedureBuilder", "format_procedure",
    "parse_expression", "parse_procedure", "parse_program", "validate",
    "ALL_ATOMIC", "ALL_PREACCUMULATE", "ALL_REDUCTION", "ALL_SHARED",
    "ALL_TRANSPOSED", "ConstantPolicy", "GuardPolicy", "SafeguardStrategy",
    "get_strategy", "register_strategy", "registered_strategies",
    "resolve_strategy", "strategy_names",
    "ReverseResult", "differentiate_reverse",
    "TangentResult", "differentiate_tangent",
    "ActivityAnalysis",
    "AnalysisReport", "FormADEngine", "FormADGuardPolicy", "LoopAnalysis",
    "PrimalRaceError", "format_table1",
    "BROADWELL_18", "MachineModel", "Memory", "detect_races", "profile_run",
    "run_procedure", "simulate_thread_sweep",
    "NULL_TRACER", "CollectingTracer", "JsonlTracer", "NullTracer", "Tracer",
    "STRATEGIES", "differentiate", "analyze_formad", "__version__",
]
