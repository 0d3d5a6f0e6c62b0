"""FormAD as a safeguard policy for the AD engine.

``FormADGuardPolicy`` answers the AD engine's "how do I guard this
adjoint increment?" question with the ``shared`` strategy whenever the
engine proved the array conflict-free, and with a configurable fallback
strategy (atomics by default, as in the paper's generated code)
otherwise.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ..ad.guards import GuardPolicy
from ..ad.strategies import SHARED, SafeguardStrategy, get_strategy
from ..analysis.activity import ActivityAnalysis
from ..ir.program import Procedure
from ..ir.stmt import Loop
from .engine import FormADEngine, LoopAnalysis


class FormADGuardPolicy(GuardPolicy):
    """Drop safeguards exactly where FormAD's proof allows it."""

    def __init__(
        self,
        proc: Procedure,
        independents: Sequence[str],
        dependents: Sequence[str],
        *,
        fallback: Union[str, SafeguardStrategy] = "atomic",
        max_theory_checks: int = 20000,
        node_budget: int = 2000,
        solver_factory=None,
        tracer=None,
    ) -> None:
        if isinstance(fallback, str):
            fallback = get_strategy(fallback)
        if fallback is SHARED:
            raise ValueError("the fallback must be a real safeguard")
        # Own copies: differentiate_reverse compares them with its own
        # arguments to decide whether it may reuse this analysis.
        self.activity = ActivityAnalysis(proc, list(independents),
                                         list(dependents))
        extra = {} if tracer is None else {"tracer": tracer}
        self.engine = FormADEngine(proc, self.activity,
                                   max_theory_checks=max_theory_checks,
                                   node_budget=node_budget,
                                   solver_factory=solver_factory,
                                   **extra)
        self.fallback = fallback

    def decide(self, loop: Loop, primal_array: str) -> SafeguardStrategy:
        verdict = self.engine.analyze_loop(loop).verdicts.get(primal_array)
        if verdict is not None and verdict.safe:
            return SHARED
        return self.fallback

    def analyses(self) -> List[LoopAnalysis]:
        """All analyses performed so far (one per parallel loop)."""
        return self.engine.analyze_all()
