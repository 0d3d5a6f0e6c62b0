"""The escalation ladder: retry resource-limited questions harder.

A question that answers UNKNOWN because a *configured* limit ran out
(``timeout``: its per-question deadline expired; ``budget``: a
theory-check / node / clausify cap was exhausted) is not a verdict —
it is a resource decision, and FormAD may retry it with bigger
resources before degrading to safeguards. Genuine ``solver-unknown``
answers are never retried: asking the same question with the same
budgets is a no-op for this deterministic solver.

Budgets grow exponentially per attempt with a small deterministic
jitter (hashed from the question key, never ``random``), so a batch of
simultaneously-timed-out questions does not retry in lockstep but a
given run remains exactly reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator

#: UNKNOWN reasons that an escalation retry can plausibly fix.
RETRYABLE_REASONS = frozenset({"timeout", "budget"})

#: The ladder: attempt ``k`` scales the budgets by ``GROWTH ** k``,
#: capped at ``MAX_SCALE``, plus/minus up to ``JITTER`` of the scale.
GROWTH = 2.0
MAX_SCALE = 16.0
JITTER = 0.15


@dataclass(frozen=True)
class EscalationPolicy:
    """How hard to retry a resource-limited exploitation question.

    ``max_attempts`` counts *total* asks (1 = never retry — the
    default, so runs without resilience flags behave byte-identically
    to a build without this module). Attempt ``k`` (0-based) scales
    the solver's node/theory-check budgets along the module's ladder
    (:data:`GROWTH`, :data:`MAX_SCALE`, :data:`JITTER`).
    """

    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def retryable(self, reason: str) -> bool:
        return reason in RETRYABLE_REASONS

    def scales(self, key: str) -> Iterator[float]:
        """Budget scale factors for attempts 1, 2, ... on *key* (the
        scale of attempt 0 is always exactly 1.0 and not yielded)."""
        seed = zlib.crc32(key.encode("utf-8", "replace"))
        for attempt in range(1, self.max_attempts):
            scale = min(GROWTH ** attempt, MAX_SCALE)
            # Deterministic jitter in [-JITTER, +JITTER), different per
            # (question, attempt) but identical across runs.
            frac = ((seed ^ (attempt * 0x9E3779B1)) % 10_000) / 10_000.0
            scale *= 1.0 + JITTER * (2.0 * frac - 1.0)
            yield max(scale, 1.0)


#: The do-not-retry policy (attempt once, degrade immediately).
NO_ESCALATION = EscalationPolicy(max_attempts=1)
