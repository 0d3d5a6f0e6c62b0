"""Distributed tracing over the serve-worker wire protocol.

The tentpole contract (docs/OBSERVABILITY.md "Distributed tracing &
metrics v2"):

* an ``analyze --jobs`` run produces ONE merged trace that validates
  under repro-trace/2 — worker-buffered events re-emitted by the
  parent, each carrying its ``worker_id`` and a timestamp normalized
  onto the parent's timeline via the clock-offset handshake;
* normalized worker timestamps are clamped into the carrying request's
  send/receive window, so they stay monotonic with the parent-side
  span that surrounds them;
* inline and pooled runs agree on the analysis-event multiset
  (modulo timers, ids, and attribution fields) — tracing does not
  change *what* is observed, only where it ran;
* a worker that dies holding its buffer is counted in
  ``telemetry.dropped_events`` instead of losing telemetry silently;
* the scheduler, cache, and solver metrics land in the final
  ``metrics`` event (schema repro-metrics/2).
"""

import json

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.formad import FormADEngine
from repro.ir import parse_program
from repro.obs.events import validate_events
from repro.obs.metrics import METRICS_SCHEMA_V2
from repro.obs.tracer import CollectingTracer
from repro.resilience.shards import ShardConfig, analyze_sharded

SAFE_TWO_LOOPS = """
subroutine two(x, y, z, n)
  real, intent(in) :: x(1000)
  real, intent(out) :: y(1000)
  real, intent(out) :: z(1000)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 1, n
    y(i) = x(i) * 2.0
  end do
  !$omp parallel do
  do j = 1, n
    z(j) = x(j) + 1.0
  end do
end subroutine two
"""

#: Analysis events whose multiset must not depend on where loops ran.
ANALYSIS_EVENTS = ("fact", "question", "verdict")

#: Fields that legitimately differ across inline/pooled runs: timers,
#: parent-assigned ids, and attribution.
VOLATILE = ("seq", "t", "span", "thread", "v", "worker_id", "partial",
            "dur_s")


def _engine(proc, tracer):
    activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
    return FormADEngine(proc, activity, tracer=tracer)


def _traced_sharded(sharder, *, jobs=2, extra_env=None):
    proc = parse_program(SAFE_TWO_LOOPS)["two"]
    tracer = CollectingTracer()
    engine = _engine(proc, tracer)
    # Workers inherit the parent's environment at spawn.
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (extra_env or {}).items():
            patch.setenv(name, value)
        analyses, outcomes = sharder(
            engine, SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
            config=ShardConfig(jobs=jobs))
    tracer.close()
    return tracer.events, analyses, outcomes


def _strip(event):
    return {k: v for k, v in event.items() if k not in VOLATILE}


def _multiset(events):
    return sorted(json.dumps(_strip(e), sort_keys=True)
                  for e in events if e["type"] in ANALYSIS_EVENTS)


class TestMergedTrace:
    def test_process_trace_validates_and_tags_every_worker_event(self):
        events, analyses, outcomes = _traced_sharded(analyze_sharded)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert validate_events(events) == []

        analysis_events = [e for e in events
                           if e["type"] in ANALYSIS_EVENTS]
        assert analysis_events, "no analysis events crossed the wire"
        for event in analysis_events:
            assert str(event.get("worker_id", "")).startswith("w"), \
                f"worker event lost its worker_id: {event}"

        assert any(e["type"] == "clock_sync" for e in events)
        assert any(e["type"] == "queue_wait" for e in events)
        assert any(e["type"] == "span_begin"
                   and e["name"] == "shard.request" for e in events)

    def test_scheduler_and_solver_metrics_in_the_final_snapshot(self):
        events, _, _ = _traced_sharded(analyze_sharded)
        metrics = events[-1]
        assert metrics["type"] == "metrics"
        assert metrics["schema"] == METRICS_SCHEMA_V2
        counters = metrics["counters"]
        assert counters["scheduler.dispatched"] == 2
        assert any(name.startswith("worker.") and
                   name.endswith(".busy_seconds") for name in counters)
        assert any(name.startswith("worker.") and
                   name.endswith(".idle_seconds") for name in counters)
        # The solver ran in the workers, yet the parent's histogram saw
        # every check (folded from the re-emitted solver_check events).
        hist = metrics["histograms"]["solver.check_seconds"]
        checks = sum(1 for e in events if e["type"] == "solver_check")
        assert checks > 0
        assert hist["count"] == checks

    def test_worker_timestamps_stay_inside_their_request_span(self):
        """The clock-normalization monotonicity guarantee: a re-emitted
        worker event's ``t`` never escapes the shard.request span that
        carried it."""
        events, _, _ = _traced_sharded(analyze_sharded)
        begins = {e["id"]: e for e in events if e["type"] == "span_begin"}
        ends = {e["id"]: e for e in events if e["type"] == "span_end"}
        checked = 0
        for event in events:
            sid = event.get("span")
            if "worker_id" not in event or sid is None \
                    or sid not in begins \
                    or begins[sid]["name"] != "shard.request":
                continue
            assert begins[sid]["t"] <= event["t"] <= ends[sid]["t"], \
                f"event escaped its request window: {event}"
            checked += 1
        assert checked > 0, "no worker event was re-emitted under a span"

    def test_worker_events_under_spans_are_time_ordered(self):
        events, _, _ = _traced_sharded(analyze_sharded, jobs=1)
        per_span = {}
        for event in events:
            if "worker_id" in event and event.get("span") is not None:
                per_span.setdefault(event["span"], []).append(event["t"])
        assert per_span
        for sid, times in per_span.items():
            assert times == sorted(times), \
                f"span {sid} worker events are not monotonic: {times}"


class TestBackendIdentity:
    def test_thread_and_process_traces_agree_on_the_event_multiset(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline_tracer = CollectingTracer()
        _engine(proc, inline_tracer).analyze_all()
        inline_tracer.close()

        pool_events, _, _ = _traced_sharded(analyze_sharded)
        assert _multiset(inline_tracer.events) == _multiset(pool_events)


class TestTelemetryLoss:
    def test_dead_worker_is_counted_not_silently_dropped(self):
        events, analyses, outcomes = _traced_sharded(
            analyze_sharded, jobs=1,
            extra_env={"REPRO_WORKER_FAULT": "exit:3@0:i"})
        assert [o.status for o in outcomes] == ["crash", "ok"]
        assert validate_events(events) == []
        counters = events[-1]["counters"]
        assert counters.get("telemetry.dropped_events", 0) >= 1
        assert counters.get("scheduler.respawns", 0) >= 1

    def test_healthy_run_drops_nothing(self):
        events, _, _ = _traced_sharded(analyze_sharded)
        counters = events[-1]["counters"]
        assert "telemetry.dropped_events" not in counters
