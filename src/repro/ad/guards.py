"""Safeguard policies for adjoint parallel loops.

The AD engine asks a :class:`GuardPolicy` which registered
:class:`~repro.ad.strategies.SafeguardStrategy` should safeguard each
adjoint increment to a *shared* array inside an adjoint parallel loop:

* ``shared`` — plain update, no safeguard (only FormAD proves this);
* ``atomic`` — ``!$omp atomic`` on each increment (paper: "Adjoint
  Atomic");
* ``reduction`` — privatize the adjoint array in a ``reduction(+)``
  clause (paper: "Adjoint Reduction");
* ``preaccumulate`` / ``transposed`` — the related-work strategies
  (see :mod:`repro.ad.strategies`).

A policy only expresses *preference*; the transformer still checks the
chosen strategy's applicability predicate against the loop's reference
pattern and falls back to atomics when the choice is unsound for an
array. Policies correspond to the paper's program versions; the FormAD
policy (answering ``shared`` per proven-safe array) lives in
:mod:`repro.formad` and implements the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.stmt import Loop
from .strategies import (ATOMIC, PREACCUMULATE, REDUCTION, SHARED,
                         TRANSPOSED, SafeguardStrategy)


class GuardPolicy:
    """Decides the safeguard strategy per (parallel loop, primal array)."""

    #: The :class:`~repro.analysis.activity.ActivityAnalysis` the policy
    #: built to decide, if any; ``differentiate_reverse`` reuses it when
    #: it covers the same procedure, independents and dependents.
    activity = None

    def decide(self, loop: Loop, primal_array: str) -> SafeguardStrategy:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPolicy(GuardPolicy):
    """Always answers the same strategy (the fixed program versions)."""

    strategy: SafeguardStrategy

    def decide(self, loop: Loop, primal_array: str) -> SafeguardStrategy:
        return self.strategy


ALL_ATOMIC = ConstantPolicy(ATOMIC)
ALL_REDUCTION = ConstantPolicy(REDUCTION)
ALL_SHARED = ConstantPolicy(SHARED)
ALL_PREACCUMULATE = ConstantPolicy(PREACCUMULATE)
ALL_TRANSPOSED = ConstantPolicy(TRANSPOSED)
