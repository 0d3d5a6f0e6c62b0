"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload lbm-analyze --seed 0 --seconds 30 --trace 0

(``python -m bench.run ...`` from the repository root is the same.)

The runner is one closed-loop client: it starts one child interpreter
at a time (``bench/child.py``) and waits for it, so at most one CPU is
busy. First an untimed *reference child* computes the answers the ops
are checked against. Then op children run until ``--seconds`` of wall
time are used: a fresh interpreter per op, except for ``audit-mix``,
whose children each run one pass over the seed's case pool. Every
child gets a private working directory, ``HOME``, ``TMPDIR`` and
``XDG_CACHE_HOME`` under ``.bench_work/``, ``PYTHONHASHSEED=0``, and no
``REPRO_*`` variables. After the window closes every op's outputs are
checked against the reference and ``bench/expected.json``.

With ``--trace 0`` the runner reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced children and reports
the per-layer ledger of the traced ops (see ``bench/layers.py``). It
prints ``workload metric value unit`` lines and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1
when any op failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench.layers import NestingError, op_ledger  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: An op slower than this counts as failed.
OP_LIMIT_S = 30.0
#: A child still running after this is killed and its ops fail.
CHILD_TIMEOUT_S = 60.0
#: Layers whose time is reported as a share of the op (see per_layer).
SHARE_LAYERS = ("smt.intsolver", "runtime.interp", "runtime.memory",
                "runtime.costmodel")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(home: Path) -> Dict[str, str]:
    """A hermetic child environment: no ``REPRO_*`` switches, no shared
    caches, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(HOME=str(home), TMPDIR=str(home),
               XDG_CACHE_HOME=str(home / ".cache"), PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    return env


class Child:
    """One finished child process with its result."""

    def __init__(self, job: dict, spawn: float, exit: float,
                 result: Optional[dict], spans: List[dict],
                 error: Optional[str]):
        self.ops: List[int] = job.get("ops", [])
        self.traced: bool = job.get("traced", False)
        self.spawn, self.exit = spawn, exit
        self.result, self.spans, self.error = result, spans, error

    @property
    def setup_s(self) -> float:
        return self.result["ready"] - self.spawn


def run_child(workdir: Path, index: int, job: dict) -> Child:
    home = workdir / f"c{index}"
    home.mkdir()
    (home / "job.json").write_text(json.dumps(job))
    spawn = time.perf_counter()
    error = None
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", str(home / "job.json")],
            cwd=home, env=child_env(home), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:]
            error = f"child exited {proc.returncode}" + "".join(
                f": {line}" for line in tail)
    except subprocess.TimeoutExpired:
        error = f"child killed after {CHILD_TIMEOUT_S:.0f} s"
    exit_t = time.perf_counter()
    result, spans = None, []
    if error is None:
        result = json.loads((home / "result.json").read_text())
        span_file = home / "spans.jsonl"
        if span_file.exists():
            spans = [json.loads(line) for line in
                     span_file.read_text().splitlines()]
    shutil.rmtree(home, ignore_errors=True)
    return Child(job, spawn, exit_t, result, spans, error)


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Reference pass, then the timed window; returns raw samples."""
    base = {"workload": workload.name, "seed": seed}
    ref = run_child(workdir, 0, {**base, "mode": "reference"})
    if ref.error is not None:
        raise BenchError(f"reference child failed: {ref.error}")
    children: List[Child] = []
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(children) >= (2 if trace else 1)
        if enough and elapsed + statistics.median(walls) > seconds:
            break
        n = len(children)
        child = run_child(workdir, n + 1, {
            **base, "mode": "ops",
            "ops": list(range(workload.ops_per_child)),
            "traced": bool(trace and n % 2 == 1)})
        children.append(child)
        walls.append(child.exit - child.spawn)
    window = children[-1].exit - start
    return {"reference": ref.result["reference"], "children": children,
            "window_s": window}


def verify(workload, raw: dict, expected: dict) -> dict:
    """Check every op; collect per-op samples."""
    attempted = failed = 0
    problems: List[str] = []
    samples = {"op_s": [], "traced_op_s": [], "setup_s": [], "rss_mb": []}
    ledgers: List[dict] = []
    outs: List[dict] = []
    for child in raw["children"]:
        attempted += len(child.ops)
        if child.error is not None:
            failed += len(child.ops)
            problems.append(child.error)
            continue
        if not child.traced:
            samples["setup_s"].append(child.setup_s)
            samples["rss_mb"].append(child.result["rss_kb"] / 1024.0)
        spans_by_op: Dict[int, List[dict]] = {}
        for span in child.spans:
            spans_by_op.setdefault(span["op"], []).append(span)
        for op in child.result["ops"]:
            duration = op["end"] - op["start"]
            issues = []
            if "error" in op:
                issues.append(op["error"].strip().splitlines()[-1])
            elif duration > OP_LIMIT_S:
                issues.append(f"op took {duration:.1f} s")
            else:
                issues = workload.check(op["out"], raw["reference"],
                                        expected)
                outs.append(op["out"])
            if issues:
                failed += 1
                problems += [f"op {op['k']}: {i}" for i in issues]
                continue
            if child.traced:
                samples["traced_op_s"].append((op["k"], duration))
                ledgers.append(op_ledger(spans_by_op.get(op["k"], []),
                                         op["start"], op["end"]))
            else:
                samples["op_s"].append((op["k"], duration))
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "samples": samples, "ledgers": ledgers, "outs": outs}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def best_op(samples: List[Tuple[int, float]]) -> float:
    """Median over distinct ops of each op's fastest repetition.

    Co-tenant load on a shared host only ever adds time, and it comes in
    phases long enough to slow most ops of a 30-s run, so the fastest
    repetition is the steadiest estimate of an op's own cost. Distinct
    ops (the ``audit-mix`` cases) are then summarised by their median.
    """
    fastest: Dict[int, float] = {}
    for k, duration in samples:
        fastest[k] = min(duration, fastest.get(k, duration))
    return statistics.median(fastest.values())


def end_to_end(checked: dict) -> Dict[str, float]:
    s = checked["samples"]
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "op_best_s": best_op(s["op_s"]),
        "peak_rss_mb": statistics.median(s["rss_mb"]),
    }


def per_layer(raw: dict, checked: dict) -> Dict[str, float]:
    """Per-op means of the traced ops' ledgers, plus derived ratios."""
    ledgers = checked["ledgers"]
    out = {k: sum(ledger[k] for ledger in ledgers) / len(ledgers)
           for k in ledgers[0]}
    out["smt.search.model_settled_ratio"] = _ratio(
        out["smt.search.model_settled"], out["smt.search.calls"])
    out["smt.search.presolve_refuted_ratio"] = _ratio(
        out["smt.search.presolve_refuted"], out["smt.search.calls"])
    out["smt.solver.checks"] = out["smt.solver.calls"]
    out["smt.clausify.hit_ratio"] = _ratio(out["smt.clausify.hits"],
                                           out["smt.clausify.calls"])
    # Layers some workloads never call are reported as their share of
    # the op's wall time, which reads 0 where the layer is not called.
    for layer in SHARE_LAYERS:
        out[f"{layer}.share"] = _ratio(out[f"{layer}.s"], out["op.s"])
    s = checked["samples"]
    out["trace.overhead"] = (best_op(s["traced_op_s"])
                             / best_op(s["op_s"]) - 1.0)
    sims = [o["strategies"]["formad"]["sim_s"] for o in checked["outs"]
            if "strategies" in o]
    serial_s = raw["reference"].get("serial_s")
    out["sim_speedup_formad"] = (serial_s / statistics.median(sims)
                                 if sims and serial_s else 0.0)
    return out


def _rounded(samples: dict) -> dict:
    """Samples rounded to 1 µs (0.001 MB) for the ``--out`` record."""
    def r(x):
        return [r(v) for v in x] if isinstance(x, (list, tuple)) else (
            round(x, 6) if isinstance(x, float) else x)
    return {name: r(values) for name, values in samples.items()}


def host_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit}


def parse_args(argv, config: dict):
    p = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run one benchmark workload and print its metrics.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=config["run_seconds"],
                   help="wall time of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: alternate traced children, report the "
                        "per-layer ledger")
    p.add_argument("--out", type=Path,
                   help="also write the full result (samples, host) here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        config = load_config()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, config)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads((ROOT / "bench" / "expected.json").read_text()
                          ).get(workload.name, {})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        raw = measure(workload, args.seed, args.seconds, bool(args.trace),
                      workdir)
        checked = verify(workload, raw, expected)
        section = "per_layer" if args.trace else "end_to_end"
        values = {}
        if checked["samples"]["op_s"] and (checked["ledgers"]
                                           or not args.trace):
            values = (per_layer(raw, checked) if args.trace
                      else end_to_end(checked))
    except (BenchError, NestingError) as exc:
        print(f"bench: FAILED {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    # Without a successful op there is nothing to measure: the result
    # then carries the failure count and no metrics.
    metrics = {}
    for spec in config[section] if values else ():
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{workload.name} {spec['name']} {value!r} {spec['unit']}")
    for problem in checked["problems"][:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    summary = {"correct": checked["failed"] == 0,
               "attempted": checked["attempted"],
               "failed": checked["failed"], "metrics": metrics}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": "repro-bench/1", "workload": workload.name,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host": host_facts(),
            "window_s": raw["window_s"], "children": len(raw["children"]),
            **summary, "problems": checked["problems"][:20],
            "samples": _rounded(checked["samples"]),
            "ledger": values if args.trace else None,
        }, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if checked["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
