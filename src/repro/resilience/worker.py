"""Worker subprocess entry point: ``python -m repro.resilience.worker
--serve``.

The worker of the ``analyze --jobs`` shard runtime: a persistent
newline-delimited JSON loop. The parent sends one ``init`` request
naming the program and engine flags, then any number of ``analyze``
requests — one per loop shard pulled from the parent's
work queue — and finally ``shutdown``. The worker never writes the
parent's trace stream or run-state store: each ``analyze`` reply
carries the serialized loop analysis, the trace events buffered by a
:class:`~repro.obs.tracer.BufferTracer`, and the decided answers the
worker's **readonly** store received, for the parent — the single
writer — to apply (:mod:`~repro.resilience.shards`). The store, when
configured, answers questions locally; storing is the parent's job.

The serve loop also backs ``repro audit --jobs``: an ``init`` with
``"mode": "audit"`` puts the worker in audit mode, and each
``audit_case`` request runs one self-contained soundness-audit case
through :func:`repro.audit.campaign.execute_unit` (the function the
inline audit calls too) inside this process, so a crash, hang, or
injected fault takes down one case — never the audit.

A :class:`~repro.formad.engine.PrimalRaceError` is a genuine finding,
not a failure: it is reported in the reply (``error``) and re-raised
by the parent.

``REPRO_WORKER_FAULT`` injects deterministic faults for tests and the
CI resilience smoke job::

    REPRO_WORKER_FAULT="exit:3"        # exit with status 3
    REPRO_WORKER_FAULT="hang:600"      # sleep past the kill timeout
    REPRO_WORKER_FAULT="raise"         # crash with a RuntimeError
    REPRO_WORKER_FAULT="exit:3@1:j"    # ... only for loop key "1:j"

The optional ``@<loop_key>`` suffix restricts the fault to one loop,
leaving every other shard request honest.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import List, Optional


def _inject_fault(loop_key: str) -> None:
    spec = os.environ.get("REPRO_WORKER_FAULT")
    if not spec:
        return
    if "@" in spec:
        spec, target = spec.split("@", 1)
        if target != loop_key:
            return
    kind, _, arg = spec.partition(":")
    if kind == "exit":
        sys.exit(int(arg or "1"))
    elif kind == "hang":
        time.sleep(float(arg or "3600"))
    elif kind == "raise":
        raise RuntimeError(f"injected worker fault on loop {loop_key!r}")


def _build_engine(request: dict, *, tracer=None):
    """The engine an ``init`` request describes."""
    from ..analysis.activity import ActivityAnalysis
    from ..formad.engine import FormADEngine
    from ..ir import parse_program
    from ..obs.tracer import NULL_TRACER
    from .deadline import Deadline
    from .escalate import EscalationPolicy

    program = parse_program(request["source"])
    proc = program[request["head"]]
    activity = ActivityAnalysis(proc, request["independents"],
                                request["dependents"])
    deadline = None
    if request.get("deadline_remaining") is not None:
        deadline = Deadline(float(request["deadline_remaining"]))
    escalation = None
    if request.get("escalation"):
        escalation = EscalationPolicy(**request["escalation"])
    cache = None
    if request.get("cache_dir") and request.get("fingerprint"):
        from .cache import VerdictCache
        cache = VerdictCache(request["cache_dir"], request["fingerprint"],
                             readonly=True)
    return FormADEngine(proc, activity, deadline=deadline,
                        question_timeout=request.get("question_timeout"),
                        escalation=escalation, cache=cache,
                        tracer=tracer or NULL_TRACER,
                        **(request.get("flags") or {}))


def serve() -> int:
    """The ``--serve`` request loop (one line in, one line out)."""
    from ..obs.tracer import BufferTracer
    from .deadline import Deadline
    from .journal import serialize_analysis

    engine = None
    tracer: Optional[BufferTracer] = None
    loops_by_key = {}
    cache = None

    def reply(payload: dict) -> None:
        # Every reply carries the worker's monotonic clock (the
        # parent's clock-offset handshake, repro.obs.clock) and drains
        # the buffered trace events — error replies included, so a
        # failed shard's telemetry still reaches the parent instead of
        # leaking into the next reply.
        payload["clock"] = time.perf_counter()
        if tracer is not None and "events" not in payload:
            payload["events"] = tracer.drain()
            payload["events_total"] = tracer.events_total
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        op = request.get("op")
        if op == "shutdown":
            break
        if op == "init" and request.get("mode") == "audit":
            # Audit mode: no program to parse — every audit_case
            # request is self-contained (it ships its own CaseSpec or
            # names its paper kernel). The audit machinery is imported
            # now, so the first case's round trip does not pay for it.
            from ..audit import campaign  # noqa: F401
            reply({"ok": True, "loops": []})
            continue
        if op == "audit_case":
            # One subprocess-contained soundness-audit case. Faults
            # inject against the audit case id, so a test can kill
            # exactly one case's worker and leave the rest honest.
            _inject_fault(str(request.get("case", "")))
            from ..audit.campaign import execute_unit
            reply(execute_unit(request))
            continue
        if op == "init":
            tracer = BufferTracer() if request.get("trace") else None
            engine = _build_engine(request, tracer=tracer)
            cache = engine._vcache
            loops_by_key = {engine.loop_key(loop): loop
                            for loop in engine.proc.parallel_loops()}
            reply({"ok": True, "loops": sorted(loops_by_key)})
            continue
        if op != "analyze" or engine is None:
            reply({"error": {"type": "ValueError",
                             "message": f"bad request op {op!r}"}})
            continue
        loop_key = str(request["loop_key"])
        _inject_fault(loop_key)
        target = loops_by_key.get(loop_key)
        if target is None:
            reply({"loop": loop_key, "error": {
                "type": "KeyError",
                "message": f"no parallel loop with key {loop_key!r}"}})
            continue
        if request.get("deadline_remaining") is not None:
            engine.attach_run_state(
                deadline=Deadline(float(request["deadline_remaining"])))
        hits_before = cache.question_hits if cache is not None else 0
        from ..formad.engine import PrimalRaceError
        try:
            analysis = engine.analyze_loop(target)
        except PrimalRaceError as exc:
            reply({"loop": loop_key,
                   "error": {"type": "PrimalRaceError",
                             "message": str(exc)}})
            continue
        questions: List[dict] = []
        if cache is not None:
            questions, cache.received = cache.received, []
        reply({
            "loop": loop_key,
            "analysis": serialize_analysis(loop_key, analysis),
            "cacheable": analysis.cacheable,
            "questions": questions,
            "cache_hits": (cache.question_hits - hits_before
                           if cache is not None else 0),
        })
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the pool
    sys.exit(serve())
