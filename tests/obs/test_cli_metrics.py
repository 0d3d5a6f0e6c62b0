"""CLI surface of the metrics v2 layer: ``--progress`` heartbeats,
the ``cache_summary``/JSON cache section, the ``--metrics`` validator
mode, and the distributed-trace views of ``repro profile``."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.metrics import METRICS_SCHEMA, METRICS_SCHEMA_V2
from repro.obs.validate import main as validate_main, validate_file

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
STENCIL_F90 = str(EXAMPLES / "stencil_small.f90")
STENCIL = ["-i", "uold", "-o", "unew"]


class TestValidateMetricsMode:
    def _write(self, tmp_path, doc):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_v2_snapshot_is_valid(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "schema": METRICS_SCHEMA_V2,
            "counters": {"scheduler.dispatched": 2}, "gauges": {},
            "histograms": {"solver.check_seconds": {
                "buckets": [0.1], "counts": [3, 0], "count": 3,
                "sum": 0.05}}})
        assert validate_main(["--metrics", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_v1_mapping_is_valid_through_migration(self, tmp_path):
        path = self._write(tmp_path, {"schema": METRICS_SCHEMA,
                                      "queries": 3})
        assert validate_main(["--metrics", path]) == 0

    def test_unknown_schema_is_rejected_with_a_clear_error(self, tmp_path,
                                                           capsys):
        path = self._write(tmp_path, {"schema": "repro-metrics/99"})
        assert validate_main(["--metrics", path]) == 1
        err = capsys.readouterr().err
        assert "repro-metrics/99" in err and METRICS_SCHEMA_V2 in err

    def test_usage_without_a_file(self, capsys):
        assert validate_main(["--metrics"]) == 2
        assert "--metrics" in capsys.readouterr().err


class TestProgressHeartbeat:
    def _snapshots(self, err):
        out = []
        for line in err.splitlines():
            if line.startswith("{"):
                doc = json.loads(line)
                if doc.get("schema") == METRICS_SCHEMA_V2:
                    out.append(doc)
        return out

    def test_final_snapshot_always_lands_on_stderr(self, capsys):
        assert main(["analyze", STENCIL_F90, *STENCIL,
                     "--progress", "30"]) == 0
        snapshots = self._snapshots(capsys.readouterr().err)
        assert snapshots, "no repro-metrics/2 heartbeat on stderr"
        final = snapshots[-1]
        # The solver histogram fills even without --trace: the
        # RegistryTracer records metrics while events stay off.
        assert final["histograms"]["solver.check_seconds"]["count"] > 0

    def test_progress_keeps_json_stdout_clean(self, capsys):
        assert main(["analyze", STENCIL_F90, *STENCIL, "--json",
                     "--progress", "30"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)      # stdout parses as one doc
        assert doc["schema"] == "repro-analyze/1"
        assert self._snapshots(captured.err)

    def test_heartbeats_validate_as_metrics_files(self, tmp_path, capsys):
        assert main(["analyze", STENCIL_F90, *STENCIL,
                     "--progress", "30"]) == 0
        snapshot = self._snapshots(capsys.readouterr().err)[-1]
        path = tmp_path / "beat.json"
        path.write_text(json.dumps(snapshot))
        assert validate_main(["--metrics", str(path)]) == 0


class TestCacheSummary:
    def test_json_gains_a_cache_section_only_with_cache_dir(self, tmp_path,
                                                            capsys):
        assert main(["analyze", STENCIL_F90, *STENCIL, "--json"]) == 0
        assert "cache" not in json.loads(capsys.readouterr().out)

        cache_dir = str(tmp_path / "vcache")
        assert main(["analyze", STENCIL_F90, *STENCIL, "--json",
                     "--cache-dir", cache_dir]) == 0
        cold = json.loads(capsys.readouterr().out)["cache"]
        assert cold["loop_stores"] > 0
        assert cold["loop_hits"] == 0
        assert cold["dropped_lines"] == 0

        assert main(["analyze", STENCIL_F90, *STENCIL, "--json",
                     "--cache-dir", cache_dir]) == 0
        warm = json.loads(capsys.readouterr().out)["cache"]
        assert warm["loop_hits"] == cold["loop_stores"]
        assert warm["loop_misses"] == 0

    def test_trace_carries_cache_summary_event_and_counters(self, tmp_path,
                                                            capsys):
        trace = str(tmp_path / "trace.jsonl")
        cache_dir = str(tmp_path / "vcache")
        assert main(["analyze", STENCIL_F90, *STENCIL,
                     "--cache-dir", cache_dir, "--trace", trace]) == 0
        assert validate_file(trace) == []
        events = [json.loads(line)
                  for line in Path(trace).read_text().splitlines()]
        summaries = [e for e in events if e["type"] == "cache_summary"]
        assert len(summaries) == 1
        assert summaries[0]["loop_stores"] > 0
        metrics = events[-1]
        assert metrics["type"] == "metrics"
        assert metrics["counters"]["cache.loop_stores"] \
            == summaries[0]["loop_stores"]
        assert "cache.question_misses" in metrics["counters"]

    def test_human_mode_keeps_the_stderr_summary_line(self, tmp_path,
                                                      capsys):
        cache_dir = str(tmp_path / "vcache")
        assert main(["analyze", STENCIL_F90, *STENCIL,
                     "--cache-dir", cache_dir]) == 0
        assert "cache:" in capsys.readouterr().err


class TestDistributedProfile:
    @pytest.fixture(scope="class")
    def process_trace(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("dist") / "process.jsonl")
        assert main(["analyze", str(EXAMPLES / "multiloop.f90"),
                     "-i", "x", "-o", "a,b,c,d,e,f",
                     "--jobs", "2",
                     "--trace", path]) == 0
        return path

    def test_profile_renders_the_distributed_views(self, process_trace,
                                                   capsys):
        assert main(["profile", process_trace]) == 0
        out = capsys.readouterr().out
        assert "worker lanes (distributed trace):" in out
        assert "worker utilization (busy vs idle in the pool):" in out
        assert "critical path (longest chain of nested spans):" in out
        assert "w0" in out

    def test_single_process_profile_omits_the_worker_views(self, capsys,
                                                           tmp_path):
        trace = str(tmp_path / "inline.jsonl")
        assert main(["analyze", STENCIL_F90, *STENCIL,
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["profile", trace]) == 0
        out = capsys.readouterr().out
        assert "worker lanes" not in out
        assert "worker utilization" not in out
        assert "critical path" in out     # spans exist in any trace
