"""The trace event schema (version 2) and its validator.

Every trace is a JSONL stream: one JSON object per line. The first
line is a ``meta`` event naming the schema (``repro-trace/2``); the
``v`` field on every event carries the same version number so
consumers can reject traces they do not understand (bump
:data:`SCHEMA_VERSION` on any incompatible change and keep readers for
the old number around for one release).

Common fields (present on **every** event):

``v``       int    schema version (:data:`SCHEMA_VERSION`)
``seq``     int    monotonically increasing sequence number
``t``       float  seconds since the tracer was opened (monotonic clock)
``type``    str    event type (one of :data:`EVENT_FIELDS`)
``thread``  str    name of the emitting thread (feeder attribution)
``span``    int?   id of the innermost open span on that thread, or None

Per-type payloads are listed in :data:`EVENT_FIELDS`; optional fields
in :data:`OPTIONAL_FIELDS`. :func:`validate_events` checks structure
*and* span discipline (begin/end pairing, per-thread nesting).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: Version number stamped on every event (and the meta line's schema).
SCHEMA_VERSION = 2

#: The schema name written into the ``meta`` event.
SCHEMA_NAME = f"repro-trace/{SCHEMA_VERSION}"

#: Required payload fields per event type (beyond the common fields).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # Stream header: first event of every trace.
    "meta": ("schema", "created"),
    # Hierarchical spans (begin carries the attrs, end the duration).
    "span_begin": ("id", "name", "parent", "attrs"),
    "span_end": ("id", "name", "dur_s"),
    # Phase-1 knowledge: one disjointness fact asserted into the model.
    "fact": ("loop", "context", "array", "formula"),
    # Phase-2 provenance: one exploitation question (testVar).
    "question": ("loop", "array", "context", "write", "other", "question",
                 "instances", "result", "memo_hit", "dur_s"),
    # FormAD's per-array answer.
    "verdict": ("loop", "array", "safe", "pairs_total", "pairs_proven",
                "reason"),
    # Soundness-bias fallback: the loop could not be analyzed and every
    # candidate array keeps its safeguard. ``phase`` is ``build_model``
    # (the solver failed or answered UNKNOWN), ``worker`` (its --jobs
    # worker was lost) or ``deadline`` (the run deadline expired before
    # its shard was dispatched).
    "degraded": ("loop", "phase", "reason"),
    # One Solver.check() with its phase breakdown.
    "solver_check": ("result", "dur_s", "translate_s", "clausify_s",
                     "search_s", "theory_checks", "branches", "propagations",
                     "clausify_hits", "clausify_misses"),
    # One audit unit settled (repro audit --trace, inline or --jobs):
    # ``case`` is its case id, ``violations`` the (usually empty) list
    # of violation kinds it confirmed; optional ``dur_s`` its run time.
    "audit_case": ("case", "family", "violations"),
    # One shard request completed (``analyze --jobs``); status is
    # "ok", "crash", or "timeout" (docs/RESILIENCE.md, docs/SCALING.md).
    "worker": ("loop", "status", "dur_s"),
    # One loop's settled verdicts were replayed from the run-state
    # store (``--cache-dir``, docs/SCALING.md).
    "cached": ("loop",),
    # One work item left the scheduler queue: how long it sat there.
    "queue_wait": ("loop", "wait_s"),
    # A feeder pulled a loop off another worker's round-robin share.
    "steal": ("loop", "worker_id"),
    # One worker's clock-offset handshake settled (repro.obs.clock):
    # worker timestamps re-emitted after this are normalized by it.
    "clock_sync": ("worker_id", "offset_s", "rtt_s"),
    # End-of-run verdict-cache tallies (replaces the old ad-hoc stderr
    # summary line; also folded into ``analyze --json`` as "cache").
    "cache_summary": ("path", "loop_hits", "question_hits",
                      "loop_stores", "question_stores"),
    # Final metrics-registry snapshot, emitted once when the tracer
    # closes (payload schema repro-metrics/2).
    "metrics": ("counters", "gauges"),
}

#: Recognized optional payload fields per event type.
OPTIONAL_FIELDS: Dict[str, Tuple[str, ...]] = {
    # ``failure`` carries the exception of a solver that died on this
    # question (the result is then recorded as UNKNOWN); ``reason`` the
    # structured UNKNOWN reason (timeout / budget / solver-unknown);
    # ``attempts`` the escalation-ladder retry count when > 1;
    # ``cached`` marks an answer replayed from the run-state store.
    "question": ("witness", "failure", "reason", "attempts", "cached"),
    # Structured reason of an UNKNOWN check (docs/RESILIENCE.md).
    "solver_check": ("reason",),
    # The worker's crash/timeout detail (exit status, signal, stderr).
    "worker": ("detail",),
    # The unit's run time, summed over its retries: inline the wall
    # time around execute_unit, under --jobs the request-to-reply round
    # trip (a worker's start-up excluded). Traces written before the
    # field existed lack it.
    "audit_case": ("dur_s",),
    # Per-kind miss counts and the damaged-line tally of the cache file.
    "cache_summary": ("loop_misses", "question_misses", "dropped_lines",
                      "hits", "conflicts"),
    # The registry snapshot's schema tag and histogram section
    # (repro-metrics/2; older traces carry bare counters/gauges).
    "metrics": ("schema", "histograms"),
}

#: Optional fields accepted on **every** event type: ``worker_id``
#: marks an event re-emitted from (or about) a serve worker, and
#: ``partial`` marks telemetry recovered from a shard whose worker died
#: before finishing — consumers must not treat a partial block as the
#: loop's complete event set (its loop also emits synthetic degraded
#: events).
UNIVERSAL_OPTIONAL = ("worker_id", "partial")

_COMMON = ("v", "seq", "t", "type", "thread", "span")


class TraceValidationError(ValueError):
    """A trace stream violates the schema."""


def missing_fields(event: dict) -> List[str]:
    """What *event* lacks that every reader needs, worded as
    :func:`validate_event` words it: its missing common fields or, when
    it has them all, the missing required fields of its (known) type. A
    trace with such an event cannot be replayed; any other finding of
    :func:`validate_event` leaves it replayable."""
    missing = [f"missing common field {name!r}" for name in _COMMON
               if name not in event]
    if missing:
        return missing
    etype = event["type"]
    required = EVENT_FIELDS.get(etype, ()) if isinstance(etype, str) else ()
    return [f"{etype}: missing field {name!r}" for name in required
            if name not in event]


def validate_event(event: dict) -> List[str]:
    """Structural errors of a single event (empty list = valid)."""
    errors: List[str] = []
    for name in _COMMON:
        if name not in event:
            errors.append(f"missing common field {name!r}")
    if errors:
        return errors
    if event["v"] != SCHEMA_VERSION:
        errors.append(f"schema version {event['v']!r}, expected "
                      f"{SCHEMA_VERSION}")
    etype = event["type"]
    required = EVENT_FIELDS.get(etype) if isinstance(etype, str) else None
    if required is None:
        errors.append(f"unknown event type {etype!r}")
        return errors
    for name in required:
        if name not in event:
            errors.append(f"{etype}: missing field {name!r}")
    known = (set(_COMMON) | set(required) | set(UNIVERSAL_OPTIONAL)
             | set(OPTIONAL_FIELDS.get(etype, ())))
    for name in event:
        if name not in known:
            errors.append(f"{etype}: unknown field {name!r}")
    if etype == "meta" and event.get("schema") != SCHEMA_NAME:
        errors.append(f"meta: unknown trace schema {event.get('schema')!r}; "
                      f"this reader understands {SCHEMA_NAME!r}")
    if etype == "metrics" and "schema" in event:
        from .metrics import validate_metrics
        errors.extend(f"metrics payload: {e}"
                      for e in validate_metrics(
                          {k: event.get(k) for k in
                           ("schema", "counters", "gauges", "histograms")}))
    return errors


def validate_events(events: Iterable[dict]) -> List[str]:
    """All schema and span-discipline errors of an event stream."""
    errors: List[str] = []
    open_spans: Dict[int, str] = {}          # id -> name
    stacks: Dict[str, List[int]] = {}        # thread -> open span ids
    last_seq = -1
    for index, event in enumerate(events):
        where = f"event {index}"
        local = validate_event(event)
        errors.extend(f"{where}: {e}" for e in local)
        if local:
            continue
        if index == 0 and event["type"] != "meta":
            errors.append(f"{where}: stream must start with a meta event")
        if event["seq"] <= last_seq:
            errors.append(f"{where}: non-increasing seq {event['seq']}")
        last_seq = event["seq"]
        stack = stacks.setdefault(event["thread"], [])
        if event["type"] == "span_begin":
            sid = event["id"]
            if sid in open_spans:
                errors.append(f"{where}: duplicate span id {sid}")
            if event["parent"] != (stack[-1] if stack else None):
                errors.append(f"{where}: span {sid} parent {event['parent']}"
                              f" does not match the open span stack")
            open_spans[sid] = event["name"]
            stack.append(sid)
        elif event["type"] == "span_end":
            sid = event["id"]
            if not stack or stack[-1] != sid:
                errors.append(f"{where}: span_end {sid} does not close the "
                              f"innermost open span")
                open_spans.pop(sid, None)
            else:
                stack.pop()
                name = open_spans.pop(sid)
                if name != event["name"]:
                    errors.append(f"{where}: span {sid} ends as "
                                  f"{event['name']!r}, began as {name!r}")
        elif event["span"] is not None and event["span"] not in open_spans:
            errors.append(f"{where}: references closed span {event['span']}")
    for sid, name in open_spans.items():
        errors.append(f"span {sid} ({name!r}) never ended")
    return errors
