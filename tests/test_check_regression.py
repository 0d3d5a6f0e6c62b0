"""The perf-regression gate (benchmarks/check_regression.py).

The gate is a standalone script outside the package (CI runs it as
``python benchmarks/check_regression.py``), so it is loaded here via
importlib rather than imported.
"""

import copy
import importlib.util
import json
import os

import pytest

_GATE = os.path.join(os.path.dirname(__file__), os.pardir,
                     "benchmarks", "check_regression.py")
spec = importlib.util.spec_from_file_location("check_regression", _GATE)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def _doc():
    """A miniature but structurally faithful BENCH_ANALYSIS.json."""
    return {
        "schema": "repro-analysis-perf/1",
        "kernels": {
            "GFMC": {
                "fresh": {
                    "verdicts": {"cl": True, "cr": True},
                    "metrics": {"schema": "repro-metrics/1",
                                "queries": 38, "solver_checks": 38,
                                "memo_hits": 0,
                                "time_seconds": 0.02,
                                "search_seconds": 0.012},
                },
                "incremental": {
                    "verdicts": {"cl": True, "cr": True},
                    "metrics": {"schema": "repro-metrics/1",
                                "queries": 38, "solver_checks": 29,
                                "memo_hits": 9,
                                "time_seconds": 0.01,
                                "search_seconds": 0.006},
                },
                "translate_clausify_speedup": 3.2,
            },
            "LBM": {
                "fresh": {"verdicts": {"dstgrid": False},
                          "metrics": {"queries": 100,
                                      "time_seconds": 1.0}},
                "incremental": {"verdicts": {"dstgrid": False},
                                "metrics": {"queries": 100,
                                            "time_seconds": 0.4}},
                "translate_clausify_speedup": 28.0,
            },
        },
        "backend": {"cpus": 4, "speedup": 2.5, "speedup_enforced": True},
    }


def test_identical_documents_pass():
    failures, _ = gate.compare(_doc(), _doc())
    assert failures == []


def test_timer_drift_is_not_a_regression():
    cur = _doc()
    cur["kernels"]["GFMC"]["fresh"]["metrics"]["time_seconds"] = 99.0
    cur["kernels"]["GFMC"]["fresh"]["metrics"]["search_seconds"] = 50.0
    failures, _ = gate.compare(cur, _doc())
    assert failures == []


def test_deterministic_counter_drift_fails():
    cur = _doc()
    cur["kernels"]["GFMC"]["incremental"]["metrics"]["solver_checks"] = 30
    failures, _ = gate.compare(cur, _doc())
    assert any("solver_checks" in f and "29 -> 30" in f for f in failures)


def test_verdict_change_fails():
    cur = _doc()
    cur["kernels"]["LBM"]["fresh"]["verdicts"]["dstgrid"] = True
    failures, _ = gate.compare(cur, _doc())
    assert any("LBM/fresh: verdicts changed" in f for f in failures)


def test_speedup_within_tolerance_passes():
    cur = _doc()
    cur["kernels"]["GFMC"]["translate_clausify_speedup"] = 2.6  # -19%
    failures, _ = gate.compare(cur, _doc(), tolerance=0.25)
    assert failures == []


def test_speedup_below_tolerance_fails():
    cur = _doc()
    cur["kernels"]["GFMC"]["translate_clausify_speedup"] = 2.0  # -37%
    failures, _ = gate.compare(cur, _doc(), tolerance=0.25)
    assert any("GFMC: translate_clausify_speedup" in f for f in failures)


def test_sub_2x_baseline_ratio_is_informational_only():
    base = _doc()
    base["kernels"]["GFMC"]["translate_clausify_speedup"] = 1.5
    cur = copy.deepcopy(base)
    cur["kernels"]["GFMC"]["translate_clausify_speedup"] = 1.0
    failures, notes = gate.compare(cur, base)
    assert failures == []
    assert any("gating floor" in n for n in notes)


def test_backend_speedup_regression_fails_on_same_machine_class():
    cur = _doc()
    cur["backend"]["speedup"] = 1.0
    failures, _ = gate.compare(cur, _doc(), tolerance=0.25)
    assert any(f.startswith("backend: speedup") for f in failures)


def test_machine_class_guard_skips_cpu_mismatch():
    cur = _doc()
    cur["backend"]["cpus"] = 1
    cur["backend"]["speedup"] = 0.5
    failures, notes = gate.compare(cur, _doc())
    assert failures == []
    assert any("machine class differs" in n for n in notes)


def test_machine_class_guard_skips_unenforced_speedup():
    cur = _doc()
    cur["backend"]["speedup_enforced"] = False
    cur["backend"]["speedup"] = 0.5
    failures, notes = gate.compare(cur, _doc())
    assert failures == []
    assert any("not enforced" in n for n in notes)


def test_quick_mode_kernel_subset_compares_intersection():
    cur = _doc()
    del cur["kernels"]["LBM"]  # REPRO_BENCH_QUICK=1 omits LBM
    failures, notes = gate.compare(cur, _doc())
    assert failures == []
    assert any("LBM" in n for n in notes)


def test_schema_mismatch_fails():
    cur = _doc()
    cur["schema"] = "repro-analysis-perf/999"
    failures, _ = gate.compare(cur, _doc())
    assert any("schema mismatch" in f for f in failures)


def test_main_exit_codes(tmp_path):
    base = tmp_path / "baseline.json"
    cur = tmp_path / "current.json"
    base.write_text(json.dumps(_doc()))
    good = _doc()
    cur.write_text(json.dumps(good))
    assert gate.main([str(cur), "--baseline", str(base)]) == 0

    bad = copy.deepcopy(good)
    bad["kernels"]["GFMC"]["translate_clausify_speedup"] = 0.5
    cur.write_text(json.dumps(bad))
    assert gate.main([str(cur), "--baseline", str(base)]) == 1

    assert gate.main([str(tmp_path / "missing.json"),
                      "--baseline", str(base)]) == 2


def test_main_update_rewrites_baseline(tmp_path):
    base = tmp_path / "baseline.json"
    cur = tmp_path / "current.json"
    doc = _doc()
    doc["kernels"]["GFMC"]["translate_clausify_speedup"] = 9.9
    cur.write_text(json.dumps(doc))
    assert gate.main([str(cur), "--baseline", str(base),
                      "--update"]) == 0
    rewritten = json.loads(base.read_text())
    assert rewritten["kernels"]["GFMC"]["translate_clausify_speedup"] == 9.9


def test_committed_baseline_gates_itself():
    """The repo's own baseline must pass against itself — the gate's
    CI invariant on day one."""
    baseline = gate.load(gate.DEFAULT_BASELINE)
    failures, _ = gate.compare(baseline, baseline)
    assert failures == []
