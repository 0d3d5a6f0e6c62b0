"""Tests of the benchmark itself (outside tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench import compare
from bench.child import main as child_main
from bench.layers import (BOUNDARIES, NestingError, Recorder, Tracing,
                          op_ledger, repro_modules, resolve)
from bench.workloads import AuditMix, audit_draw

ROOT = Path(__file__).resolve().parent.parent


def unwrapped_aliases():
    """Module attributes still bound to an original boundary function."""
    originals = set()
    for boundary in BOUNDARIES:
        owner, attr, current = resolve(boundary)
        if not isinstance(owner, type):
            originals.add(id(getattr(current, "__wrapped__", current)))
    return [f"{module.__name__}.{name}" for module in repro_modules()
            for name, value in vars(module).items()
            if id(value) in originals and not hasattr(value, "bench_layer")]


def installed_wrappers():
    """Boundary attributes currently replaced by a wrapper."""
    found = []
    for boundary in BOUNDARIES:
        owner, attr, current = resolve(boundary)
        fn = current.__func__ if isinstance(current, classmethod) else current
        if hasattr(fn, "bench_layer"):
            found.append(f"{boundary.module}.{boundary.qualname}")
    return found


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170)


def _copy_bench(tmp_path: Path, with_src: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(ROOT / "bench", root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        (root / "src").symlink_to(ROOT / "src")
    return root


def test_every_boundary_resolves():
    for boundary in BOUNDARIES:
        owner, attr, fn = resolve(boundary)
        assert callable(getattr(owner, attr)), boundary


def test_tracing_wraps_every_alias_and_uninstalls():
    tracing = Tracing(Recorder()).install()
    try:
        assert unwrapped_aliases() == []
        assert len(installed_wrappers()) == len(BOUNDARIES)
        import repro.smt.solver
        assert hasattr(repro.smt.solver.search, "bench_layer")
    finally:
        tracing.uninstall()
    assert installed_wrappers() == []


def test_untraced_child_installs_nothing(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"workload": "audit-mix", "seed": 0,
                               "mode": "ops", "ops": [0], "traced": False}))
    assert child_main(["child", str(job)]) == 0
    assert installed_wrappers() == []
    result = json.loads((tmp_path / "result.json").read_text())
    assert "error" not in result["ops"][0]
    assert not (tmp_path / "spans.jsonl").exists()


def test_traced_spans_nest_within_the_op():
    workload = AuditMix()
    inputs = {"cases": audit_draw(0, count=3)}
    recorder = Recorder()
    tracing = Tracing(recorder).install()
    try:
        recorder.begin_op(1)
        start = time.perf_counter()
        workload.op(inputs, 1)
        end = time.perf_counter()
        recorder.end_op()
    finally:
        tracing.uninstall()
    ledger = op_ledger(recorder.rows(), start, end)
    assert ledger["ir.parser.calls"] == 1
    assert ledger["runtime.interp.calls"] >= 1
    bad = recorder.rows()
    child = next(s for s in bad if s["parent"] is not None)
    child["end"] = end + 1.0
    with pytest.raises(NestingError):
        op_ledger(bad, start, end + 2.0)


def test_traced_run_ledger_adds_up(tmp_path):
    out = tmp_path / "trace.json"
    proc = _run(ROOT, "--workload", "gfmc-adjoint", "--seconds", "1",
                "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in config["per_layer"]}
    ledger = json.loads(out.read_text())["ledger"]
    attributed = sum(v for k, v in ledger.items() if k.endswith(".self_s"))
    total = attributed + ledger["unattributed.s"]
    assert total == pytest.approx(ledger["op.s"], rel=0.01)
    assert ledger["unattributed.s"] <= 0.05 * ledger["op.s"]


def test_wrong_expected_verdict_fails_the_run(tmp_path):
    root = _copy_bench(tmp_path, with_src=True)
    path = root / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["gfmc-adjoint"]["verdicts"]["cl"] = False
    path.write_text(json.dumps(expected))
    proc = _run(root, "--workload", "gfmc-adjoint", "--seconds", "1")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_perturbed_reference_gradient_fails_the_op():
    workload = AuditMix()
    inputs = {"cases": audit_draw(0, count=4)}
    ref = workload.reference(inputs)
    outs = [{"k": k, **workload.outputs(inputs, k, workload.op(inputs, k))}
            for k in range(4)]
    assert all(workload.check(o, ref, {}) == [] for o in outs)
    k = next(k for k, case in enumerate(ref["cases"]) if case["gradient"])
    grad = next(iter(ref["cases"][k]["gradient"].values()))
    grad[0] = grad[0] * (1 + 1e-6) + 1e-9
    assert workload.check(outs[k], ref, {})


def test_audit_draw_is_a_pure_function_of_the_seed():
    def fingerprint(cases):
        return [(c["source"], c["vseed"], c["ind"], c["dep"],
                 {n: np.asarray(v).tolist() for n, v in c["bindings"].items()})
                for c in cases]
    assert fingerprint(audit_draw(5, count=20)) \
        == fingerprint(audit_draw(5, count=20))
    assert [c["source"] for c in audit_draw(5, count=20)] \
        != [c["source"] for c in audit_draw(6, count=20)]


def test_runner_fails_without_program_sources(tmp_path):
    root = _copy_bench(tmp_path, with_src=False)
    proc = _run(root, "--workload", "lbm-analyze", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result(workload, value, failed=0):
    return {"workload": workload, "trace": 0, "attempted": 10,
            "failed": failed,
            "metrics": {"op_best_s": {"value": value, "unit": "s"}}}


def test_compare_flags_regressions_and_unresolved_spread():
    metrics = [{"name": "op_best_s", "better": "lower", "bound": 0.1}]
    parent = {"w": [_result("w", v) for v in
                    (1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.0)]}
    slower = {"w": [_result("w", 1.2 * r["metrics"]["op_best_s"]["value"])
                    for r in parent["w"]]}
    faster = {"w": [_result("w", 0.8 * r["metrics"]["op_best_s"]["value"])
                    for r in parent["w"]]}
    noisy = {"w": [_result("w", v) for v in
                   (0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0)]}
    failing = {"w": [_result("w", 1.0, failed=1)] + parent["w"][1:]}
    verdict = {name: {r["metric"]: r["verdict"] for r in
                      compare.compare(parent, side, metrics)}
               for name, side in (("slower", slower), ("faster", faster),
                                  ("noisy", noisy), ("failing", failing))}
    assert verdict["slower"]["op_best_s"] == "regression"
    assert verdict["faster"]["op_best_s"] == "gain"
    assert verdict["noisy"]["op_best_s"] == "unresolved"
    assert verdict["failing"]["fail_rate"] == "regression"
    assert verdict["faster"]["fail_rate"] == "same"
