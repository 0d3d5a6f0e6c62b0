"""Schema extensions for distributed traces: worker-re-emitted events,
the new scheduler/cache event types, and metrics-payload validation."""

from repro.obs.events import (SCHEMA_NAME, SCHEMA_VERSION, missing_fields,
                              validate_event, validate_events)
from repro.obs.metrics import METRICS_SCHEMA_V2


def _event(etype, seq=1, **fields):
    base = {"v": SCHEMA_VERSION, "seq": seq, "t": 0.1 * seq,
            "type": etype, "thread": "MainThread", "span": None}
    base.update(fields)
    return base


def _meta(seq=0):
    return _event("meta", seq=seq, schema=SCHEMA_NAME, created="now")


def _fact(**extra):
    return _event("fact", loop="0:i", context="root", array="y",
                  formula="i' != i", **extra)


class TestUniversalOptionalFields:
    def test_worker_id_accepted_on_any_event_type(self):
        assert validate_event(_fact(worker_id="w0")) == []
        assert validate_event(_event(
            "verdict", loop="0:i", array="y", safe=True, pairs_total=1,
            pairs_proven=1, reason="proved", worker_id="w1")) == []

    def test_partial_accepted_on_any_event_type(self):
        assert validate_event(_fact(worker_id="w0", partial=True)) == []

    def test_other_unknown_fields_still_rejected(self):
        errors = validate_event(_fact(walker_id="w0"))
        assert any("unknown field 'walker_id'" in e for e in errors)


class TestNewEventTypes:
    def test_queue_wait(self):
        assert validate_event(_event("queue_wait", loop="0:i",
                                     wait_s=0.01, worker_id="w0")) == []

    def test_steal_position_is_retired(self):
        # question sharding, the only emitter of ``position``, is gone;
        # repro-trace/2 dropped the field
        assert validate_event(_event("steal", loop="0:i",
                                     worker_id="w1")) == []
        errors = validate_event(_event("steal", loop="0:i", worker_id="w1",
                                       position=7))
        assert any("unknown field 'position'" in e for e in errors)

    def test_cancel(self):
        # retired with question sharding: repro-trace/2 dropped the type
        errors = validate_event(_event("cancel", loop="0:i", count=3))
        assert any("unknown event type 'cancel'" in e for e in errors)

    def test_clock_sync(self):
        assert validate_event(_event("clock_sync", worker_id="w0",
                                     offset_s=-1.5, rtt_s=0.002)) == []

    def test_cache_summary_with_optional_misses(self):
        event = _event("cache_summary", path="/tmp/c.jsonl", loop_hits=1,
                       question_hits=2, loop_stores=3, question_stores=4)
        assert validate_event(event) == []
        event.update(loop_misses=0, question_misses=5, dropped_lines=0)
        assert validate_event(event) == []


class TestSchemaVersionRejection:
    def test_unknown_trace_schema_in_meta(self):
        errors = validate_event(_event("meta", seq=0,
                                       schema="repro-trace/99",
                                       created="now"))
        assert any("unknown trace schema 'repro-trace/99'" in e
                   for e in errors)
        assert any(SCHEMA_NAME in e for e in errors)

    def test_unknown_event_version(self):
        bad = _fact()
        bad["v"] = 99
        assert any("version" in e for e in validate_event(bad))

    def test_non_string_type_is_an_unknown_type(self):
        # a trace is outside input: an unhashable type must not crash
        bad = _event(["verdict"])
        assert missing_fields(bad) == []
        assert validate_event(bad) == ["unknown event type ['verdict']"]


class TestMetricsPayloadValidation:
    def _metrics(self, **payload):
        base = _event("metrics", counters={}, gauges={})
        base.update(payload)
        return base

    def test_valid_v2_payload(self):
        event = self._metrics(
            schema=METRICS_SCHEMA_V2,
            counters={"scheduler.dispatched": 2}, gauges={},
            histograms={"solver.check_seconds": {
                "buckets": [0.1], "counts": [1, 0], "count": 1,
                "sum": 0.01}})
        assert validate_event(event) == []

    def test_bad_histogram_flagged_as_metrics_payload(self):
        event = self._metrics(
            schema=METRICS_SCHEMA_V2, counters={}, gauges={},
            histograms={"h": {"buckets": [0.1], "counts": [1],
                              "count": 1, "sum": 0.01}})
        errors = validate_event(event)
        assert any(e.startswith("metrics payload:") for e in errors)

    def test_unknown_metrics_schema_flagged(self):
        errors = validate_event(self._metrics(schema="repro-metrics/99",
                                              counters={}, gauges={},
                                              histograms={}))
        assert any("repro-metrics/99" in e for e in errors)

    def test_legacy_metrics_event_without_schema_passes(self):
        # Traces recorded before /2: bare counters/gauges, no payload
        # schema tag — still valid, payload validation skipped.
        assert validate_event(self._metrics()) == []


class TestStreamLevel:
    def test_worker_tagged_stream_validates(self):
        events = [_meta(),
                  _event("span_begin", seq=1, id=0, name="shard.request",
                         parent=None, attrs={}),
                  _fact(seq=2, worker_id="w0", span=0),
                  _event("span_end", seq=3, id=0, name="shard.request",
                         dur_s=0.5),
                  _event("metrics", seq=4, counters={}, gauges={})]
        assert validate_events(events) == []
