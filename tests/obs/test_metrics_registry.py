"""The repro-metrics/2 registry, validator, and /1 migration shim."""

import threading

import pytest

from repro.obs.metrics import (COUNTER_KEYS, DEFAULT_BUCKETS, METRICS_SCHEMA,
                               METRICS_SCHEMA_V2, MetricsRegistry,
                               migrate_metrics, validate_metrics)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.counter("scheduler.dispatched")
        reg.counter("scheduler.dispatched")
        reg.counter("scheduler.steals", 3)
        snap = reg.snapshot()
        assert snap["counters"] == {"scheduler.dispatched": 2,
                                    "scheduler.steals": 3}

    def test_gauges_keep_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("scheduler.queue_depth", 5)
        reg.gauge("scheduler.queue_depth", 2)
        assert reg.snapshot()["gauges"] == {"scheduler.queue_depth": 2}

    def test_histogram_buckets_count_and_sum(self):
        reg = MetricsRegistry()
        bounds = (0.1, 1.0)
        reg.observe("lat", 0.05, buckets=bounds)   # bucket 0 (<= 0.1)
        reg.observe("lat", 0.5, buckets=bounds)    # bucket 1 (<= 1.0)
        reg.observe("lat", 2.0, buckets=bounds)    # overflow bucket
        hist = reg.snapshot()["histograms"]["lat"]
        assert hist["buckets"] == [0.1, 1.0]
        assert hist["counts"] == [1, 1, 1]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(2.55)

    def test_boundary_value_lands_in_lower_bucket(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1, buckets=(0.1, 1.0))
        assert reg.snapshot()["histograms"]["lat"]["counts"] == [1, 0, 0]

    def test_default_buckets_cover_solver_latencies(self):
        reg = MetricsRegistry()
        reg.observe("solver.check_seconds", 0.003)
        hist = reg.snapshot()["histograms"]["solver.check_seconds"]
        assert hist["buckets"] == list(DEFAULT_BUCKETS)
        assert sum(hist["counts"]) == 1

    def test_snapshot_carries_v2_schema_and_sorted_keys(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        snap = reg.snapshot()
        assert snap["schema"] == METRICS_SCHEMA_V2
        assert list(snap["counters"]) == ["a", "b"]

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("x")
        snap = reg.snapshot()
        snap["counters"]["x"] = 99
        assert reg.snapshot()["counters"]["x"] == 1

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("n")
                reg.observe("lat", 0.01)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["counters"]["n"] == 4000
        assert snap["histograms"]["lat"]["count"] == 4000

    def test_snapshot_validates(self):
        reg = MetricsRegistry()
        reg.counter("c", 2)
        reg.gauge("g", 1.5)
        reg.observe("h", 0.2)
        assert validate_metrics(reg.snapshot()) == []


class TestMigration:
    def test_v1_counters_lift_into_v2_sections(self):
        v1 = {"schema": METRICS_SCHEMA, "queries": 38, "solver_checks": 38,
              "time_seconds": 0.5, "search_seconds": 0.1}
        v2 = migrate_metrics(v1)
        assert v2["schema"] == METRICS_SCHEMA_V2
        assert v2["counters"]["queries"] == 38
        assert v2["gauges"]["time_seconds"] == 0.5
        assert v2["histograms"] == {}

    def test_v1_migration_keeps_only_known_keys(self):
        v1 = {"schema": METRICS_SCHEMA, "queries": 1, "bogus": 7}
        assert "bogus" not in migrate_metrics(v1)["counters"]
        assert set(migrate_metrics(v1)["counters"]) <= set(COUNTER_KEYS)

    def test_v2_passes_through(self):
        v2 = {"schema": METRICS_SCHEMA_V2, "counters": {"a": 1},
              "gauges": {}, "histograms": {}}
        assert migrate_metrics(v2) is v2

    def test_unknown_schema_is_rejected_with_a_clear_error(self):
        with pytest.raises(ValueError) as exc:
            migrate_metrics({"schema": "repro-metrics/99"})
        message = str(exc.value)
        assert "repro-metrics/99" in message
        assert METRICS_SCHEMA in message and METRICS_SCHEMA_V2 in message


class TestValidateMetrics:
    def test_valid_v2_document(self):
        doc = {"schema": METRICS_SCHEMA_V2,
               "counters": {"a": 1}, "gauges": {"b": 2.0},
               "histograms": {"h": {"buckets": [0.1, 1.0],
                                    "counts": [1, 0, 0],
                                    "count": 1, "sum": 0.05}}}
        assert validate_metrics(doc) == []

    def test_v1_document_validates_through_migration(self):
        assert validate_metrics({"schema": METRICS_SCHEMA,
                                 "queries": 3}) == []

    def test_unknown_schema_reported_not_raised(self):
        errors = validate_metrics({"schema": "repro-metrics/99"})
        assert errors and "repro-metrics/99" in errors[0]

    def test_non_numeric_counter_flagged(self):
        errors = validate_metrics({"schema": METRICS_SCHEMA_V2,
                                   "counters": {"a": "many"},
                                   "gauges": {}, "histograms": {}})
        assert any("a" in e for e in errors)

    def test_bool_counter_flagged(self):
        errors = validate_metrics({"schema": METRICS_SCHEMA_V2,
                                   "counters": {"a": True},
                                   "gauges": {}, "histograms": {}})
        assert errors

    def test_histogram_count_mismatch_flagged(self):
        doc = {"schema": METRICS_SCHEMA_V2, "counters": {}, "gauges": {},
               "histograms": {"h": {"buckets": [1.0],
                                    "counts": [1, 2],
                                    "count": 5, "sum": 0.0}}}
        errors = validate_metrics(doc)
        assert any("count" in e for e in errors)

    def test_histogram_bucket_arity_flagged(self):
        doc = {"schema": METRICS_SCHEMA_V2, "counters": {}, "gauges": {},
               "histograms": {"h": {"buckets": [1.0, 2.0],
                                    "counts": [1],
                                    "count": 1, "sum": 0.5}}}
        assert validate_metrics(doc)

    def test_unsorted_histogram_bounds_flagged(self):
        doc = {"schema": METRICS_SCHEMA_V2, "counters": {}, "gauges": {},
               "histograms": {"h": {"buckets": [2.0, 1.0],
                                    "counts": [0, 0, 0],
                                    "count": 0, "sum": 0.0}}}
        assert validate_metrics(doc)
