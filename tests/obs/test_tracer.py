"""Tracer core: span nesting, sinks, schema validation, no-op default."""

import json
import threading

import pytest

from repro.obs.events import SCHEMA_NAME, SCHEMA_VERSION, validate_events
from repro.obs.tracer import (NULL_TRACER, CollectingTracer, JsonlTracer,
                              NullTracer, load_trace)


def by_type(events, etype):
    return [e for e in events if e["type"] == etype]


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False

    def test_all_methods_are_noops(self):
        t = NullTracer()
        t.emit("question", anything="goes")
        with t.span("outer", loop="i"):
            t.counter("queries")
            t.gauge("depth", 3)
        assert t.metrics() == {"counters": {}, "gauges": {}}
        t.close()

    def test_span_is_shared_singleton(self):
        # zero allocation on the hot path: every span() is the same object
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestSpans:
    def test_begin_end_pairing_and_parent(self):
        t = CollectingTracer()
        with t.span("outer", kernel="k"):
            with t.span("inner"):
                t.emit("fact", loop="i", context="[root]", array="u",
                       formula="x = y")
        t.close()

        begins = by_type(t.events, "span_begin")
        ends = by_type(t.events, "span_end")
        assert [b["name"] for b in begins] == ["outer", "inner"]
        assert [e["name"] for e in ends] == ["inner", "outer"]  # LIFO
        outer, inner = begins
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert outer["attrs"] == {"kernel": "k"}

        # the fact event is attributed to the innermost open span
        fact = by_type(t.events, "fact")[0]
        assert fact["span"] == inner["id"]

    def test_seq_is_monotonic_and_first_event_is_meta(self):
        t = CollectingTracer()
        with t.span("s"):
            pass
        t.close()
        assert t.events[0]["type"] == "meta"
        assert t.events[0]["schema"] == SCHEMA_NAME
        assert [e["seq"] for e in t.events] == list(range(len(t.events)))
        assert all(e["v"] == SCHEMA_VERSION for e in t.events)

    def test_close_emits_metrics_and_seals(self):
        t = CollectingTracer()
        t.counter("queries", 3)
        t.counter("queries")
        t.gauge("depth", 2.0)
        t.close()
        metrics = by_type(t.events, "metrics")[-1]
        assert metrics["counters"] == {"queries": 4}
        assert metrics["gauges"] == {"depth": 2.0}
        n = len(t.events)
        t.emit("fact", loop="i", context="c", array="a", formula="f")
        t.close()  # idempotent
        assert len(t.events) == n

    def test_per_thread_stacks_give_worker_roots(self):
        t = CollectingTracer()
        done = threading.Event()

        def worker():
            with t.span("worker-span"):
                pass
            done.set()

        with t.span("main-span"):
            th = threading.Thread(target=worker, name="pool-0")
            th.start()
            th.join()
        assert done.is_set()
        t.close()
        wbegin = [b for b in by_type(t.events, "span_begin")
                  if b["name"] == "worker-span"][0]
        # the worker's span is a root of its own timeline, not a child
        # of the main thread's open span — and it names its thread
        assert wbegin["parent"] is None
        assert wbegin["thread"] == "pool-0"
        assert validate_events(t.events) == []


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        t = JsonlTracer(path)
        with t.span("outer"):
            t.emit("fact", loop="i", context="[root]", array="u",
                   formula="i' /= i")
        t.close()
        events = load_trace(path)
        assert events == t_events_from_file(path)
        assert validate_events(events) == []
        assert by_type(events, "fact")[0]["array"] == "u"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(str(path))

    def test_load_rejects_a_line_that_is_not_an_object(self, tmp_path):
        # JSON, but no event: every reader would index it by field name
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1}\n\n7\n')
        with pytest.raises(ValueError,
                           match="bad.jsonl:3: not a JSON object"):
            load_trace(str(path))


def t_events_from_file(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestValidation:
    def good_trace(self):
        t = CollectingTracer()
        with t.span("s"):
            pass
        t.close()
        return t.events

    def test_good_trace_is_valid(self):
        assert validate_events(self.good_trace()) == []

    def test_unknown_event_type(self):
        events = self.good_trace()
        events[1] = dict(events[1], type="mystery")
        assert any("mystery" in e for e in validate_events(events))

    def test_missing_required_field(self):
        events = self.good_trace()
        bad = dict(events[1])
        del bad["name"]
        events[1] = bad
        assert validate_events(events)

    def test_first_event_must_be_meta(self):
        events = self.good_trace()
        assert validate_events(events[1:])

    def test_non_increasing_seq_detected(self):
        events = self.good_trace()
        events[-1] = dict(events[-1], seq=0)
        assert any("seq" in e for e in validate_events(events))

    def test_unbalanced_span_detected(self):
        events = [e for e in self.good_trace() if e["type"] != "span_end"]
        for i, e in enumerate(events):
            events[i] = dict(e, seq=i)
        assert validate_events(events)
