"""Hierarchical span tracer with a zero-overhead no-op default.

The pipeline is instrumented against the tiny :class:`NullTracer`
interface: ``emit`` structured events, open ``span``\\ s, bump
``counter``\\ s and set ``gauge``\\ s. The default is the process-wide
:data:`NULL_TRACER`, whose methods do nothing and whose ``enabled``
flag is ``False`` — hot paths guard event construction behind
``if tracer.enabled:`` so an untraced run pays a single attribute read
per potential event and allocates nothing.

Recording is decoupled from handling (the OpDiLib split): the engine
only calls ``emit``/``span``; *where* events go is the sink's business.
Two sinks ship: :class:`JsonlTracer` appends one JSON object per line
to a file (the ``--trace out.jsonl`` CLI path), and
:class:`CollectingTracer` keeps events in memory for tests and for the
in-process ``repro explain``/``repro profile`` replay helpers.

Both sinks are thread-safe; every event records its emitting thread's
name, which is what attributes work to the ``--jobs`` pool's feeder
threads (``shard-<k>``, and ``audit-<k>`` under ``repro audit --jobs``).
Span nesting is tracked per thread, so a span opened inside a feeder is
a root span of that feeder's timeline.
"""

from __future__ import annotations

import datetime
import json
import logging
import threading
import time
from typing import Any, Dict, List

from .events import SCHEMA_NAME, SCHEMA_VERSION
from .metrics import MetricsRegistry

logger = logging.getLogger(__name__)


class _NullSpan:
    """The reusable no-op context manager ``NullTracer.span`` returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Does nothing, as fast as possible. The default everywhere."""

    enabled = False

    def emit(self, etype: str, **fields: Any) -> None:
        return None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, value: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def metrics(self) -> Dict[str, Dict[str, float]]:
        return {"counters": {}, "gauges": {}}

    def to_trace_time(self, pc: float) -> float:
        return pc

    def close(self) -> None:
        return None


#: The shared no-op tracer (there is no reason to build another one).
NULL_TRACER = NullTracer()


class RegistryTracer(NullTracer):
    """Metrics without events: a live :class:`MetricsRegistry` behind
    the no-op event interface.

    ``analyze --progress`` without ``--trace`` runs under one of these:
    counters, gauges, and histograms accumulate (the heartbeat thread
    snapshots them), while ``enabled`` stays False so every event/span
    hot path keeps its zero-allocation guarantee — event construction
    is still guarded behind ``if tracer.enabled:`` and never happens.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def counter(self, name: str, value: int = 1) -> None:
        self.registry.counter(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def metrics(self) -> Dict[str, Dict[str, float]]:
        snapshot = self.registry.snapshot()
        return {"counters": snapshot["counters"],
                "gauges": snapshot["gauges"]}


class BufferTracer(NullTracer):
    """Collects *leaf* events in memory as ``(type, fields, wt)``
    triples, where ``wt`` is the worker's ``time.perf_counter()`` at
    emission.

    The ``analyze --jobs`` pool workers run their engine under one
    of these: the worker cannot write the parent's trace stream (seq
    numbers and span ids are parent-owned), so it buffers the raw
    emissions and ships them back in each reply; the parent re-emits
    them through its own tracer from the shard's feeder thread, which
    restores ``seq``/``thread`` attribution and normalizes ``wt`` onto
    its own timeline via the per-worker clock-offset handshake
    (:mod:`repro.obs.clock`). Spans are deliberately dropped — a
    worker's span tree belongs to the worker's timeline, and
    re-parenting it would violate the per-thread span discipline the
    validator enforces — so only leaf events (``fact``, ``question``,
    ``verdict``, ``degraded``, ``solver_check``) cross the process
    boundary.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: List[tuple] = []

    def emit(self, etype: str, **fields: Any) -> None:
        self._events.append((etype, fields, time.perf_counter()))

    def drain(self) -> List[tuple]:
        """Return and clear the buffered ``(type, fields, wt)``
        triples."""
        out = self._events
        self._events = []
        return out


class _Span:
    """An open span: a context manager emitting begin/end events."""

    __slots__ = ("_tracer", "_name", "_attrs", "_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._id = self._tracer._begin_span(self._name, self._attrs)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._end_span(self._id, self._name,
                               time.perf_counter() - self._start)


class Tracer:
    """An active tracer: assigns ids, tracks per-thread span stacks,
    accumulates counters/gauges, and hands finished events to
    :meth:`_sink` (subclass responsibility)."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._next_span_id = 0
        self._local = threading.local()
        self._origin = time.perf_counter()
        self.registry = MetricsRegistry()
        self._closed = False
        self.emit("meta", schema=SCHEMA_NAME,
                  created=datetime.datetime.now(
                      datetime.timezone.utc).isoformat())

    # -------------------------------------------------------------- sink
    def _sink(self, event: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------ events
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def emit(self, etype: str, **fields: Any) -> None:
        stack = self._stack()
        event: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": etype,
            "t": time.perf_counter() - self._origin,
            "thread": threading.current_thread().name,
            "span": stack[-1] if stack else None,
        }
        event.update(fields)
        with self._lock:
            if self._closed:
                return
            event["seq"] = self._seq
            self._seq += 1
            self._sink(event)

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def _begin_span(self, name: str, attrs: Dict[str, Any]) -> int:
        stack = self._stack()
        with self._lock:
            sid = self._next_span_id
            self._next_span_id += 1
        self.emit("span_begin", id=sid, name=name,
                  parent=stack[-1] if stack else None, attrs=attrs)
        stack.append(sid)
        return sid

    def _end_span(self, sid: int, name: str, dur_s: float) -> None:
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        self.emit("span_end", id=sid, name=name, dur_s=dur_s)

    def to_trace_time(self, pc: float) -> float:
        """A raw ``perf_counter`` reading as trace-relative seconds
        (the ``t`` of an event emitted at that instant)."""
        return pc - self._origin

    # --------------------------------------------------- counters/gauges
    def counter(self, name: str, value: int = 1) -> None:
        self.registry.counter(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def metrics(self) -> Dict[str, Dict[str, float]]:
        snapshot = self.registry.snapshot()
        return {"counters": snapshot["counters"],
                "gauges": snapshot["gauges"]}

    # ------------------------------------------------------------- close
    def close(self) -> None:
        """Flush the final registry snapshot and seal the stream."""
        if self._closed:
            return
        snapshot = self.registry.snapshot()
        self.emit("metrics", schema=snapshot["schema"],
                  counters=snapshot["counters"], gauges=snapshot["gauges"],
                  histograms=snapshot["histograms"])
        with self._lock:
            self._closed = True
            self._close_sink()

    def _close_sink(self) -> None:
        return None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CollectingTracer(Tracer):
    """Keeps every event in memory (tests, in-process replay)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        super().__init__()

    def _sink(self, event: Dict[str, Any]) -> None:
        self.events.append(event)


class JsonlTracer(Tracer):
    """Appends one JSON object per line to *path* (the ``--trace`` sink)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w")
        super().__init__()

    def _sink(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")

    def _close_sink(self) -> None:
        self._fh.close()
        logger.info("trace written to %s", self.path)


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into its event list. A line that
    is not a JSON object raises :class:`ValueError` naming the line."""
    events: List[Dict[str, Any]] = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not JSON: {exc}") from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            events.append(event)
    return events
