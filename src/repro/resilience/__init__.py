"""Resilience runtime: deadlines, escalation, crash containment, recovery.

The analysis must degrade, never fail (docs/RESILIENCE.md):

* :class:`~repro.resilience.deadline.Deadline` — a wall-clock budget
  threaded cooperatively from the CLI through
  :class:`~repro.formad.engine.FormADEngine` into the SMT search; an
  expired question answers UNKNOWN (``timeout``), which FormAD already
  treats as "keep the safeguard".
* :class:`~repro.resilience.escalate.EscalationPolicy` — retry
  timed-out / budget-exhausted questions with exponentially enlarged
  budgets before giving up.
* :mod:`~repro.resilience.journal` — the append-only, checksummed,
  fsync'd JSONL record codec that survives ``kill -9``, shared by the
  run-state store and the ``repro audit`` journal.
* :mod:`~repro.resilience.shards` — the ``analyze --jobs N`` shard
  scheduler: up to N worker processes pulling loop shards off a work
  queue, each solving on its own interpreter (docs/SCALING.md). It is
  also the crash-containment runtime: each shard request has a hard
  kill timeout, and a crashed or hung worker becomes a per-loop
  *degraded* result instead of a failed run.
* :mod:`~repro.resilience.cache` — the ``--cache-dir`` run-state
  store (schema ``repro-cache/1``): decided SAT/UNSAT answers and
  clean settled loops persist across invocations, keyed by the
  journal fingerprint, so rerunning an interrupted command recovers.

Import what you need from the submodules. The package itself imports
none of them: ``import repro`` reaches it through the engine's
:mod:`~repro.resilience.deadline` and :mod:`~repro.resilience.escalate`,
and that must not load the store, the journal or the shard scheduler.
"""
