#!/usr/bin/env python
"""CI perf-regression gate over ``BENCH_ANALYSIS.json``.

Compares a freshly measured ``BENCH_ANALYSIS.json`` against the
committed reference ``benchmarks/BENCH_BASELINE.json`` and exits
non-zero when the run regressed. Three classes of check, in order of
trust:

**Deterministic counters** (exact). Solver/engine work counters —
queries, solver checks, clausify hits/misses, memo hits, model size —
are machine-independent: the same code on the same kernel must produce
the same numbers anywhere. Any drift is a behavior change, not noise,
so these compare exactly, per kernel, on the intersection of kernels
present in both documents (quick mode omits LBM) and of counter keys
present in both (schema evolution is a baseline update, not a
failure). Verdicts compare exactly too.

**Ratios with tolerance bands**. ``translate_clausify_speedup`` (the
incremental-pipeline win, Figures 3-10) is a within-run ratio, so it
is comparable across machines but noisy: it must stay above
``baseline * (1 - tolerance)``. Baselines under
:data:`RATIO_GATING_FLOOR` (2x) are informational only — that close
to parity, constant-overhead noise swamps any tolerance band.

**Machine-class-guarded ratio**. The process-backend speedup depends
on real parallel hardware: a 1-CPU runner measures overhead, not
speedup (``speedup_enforced`` is False there). It compares — same
tolerance band — only when the baseline and current runs agree on the
CPU count *and* both runs enforced their speedup floor; otherwise the
gate records a note and moves on.

Usage::

    python benchmarks/check_regression.py [CURRENT.json]
        [--baseline benchmarks/BENCH_BASELINE.json]
        [--tolerance 0.25] [--update]

``--update`` rewrites the baseline from the current document (run it
after an intentional perf change, commit the result). Exit status:
0 = pass, 1 = regression, 2 = bad invocation/missing file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

try:
    from repro.obs.metrics import TIMER_KEYS
except ImportError:  # pragma: no cover - direct invocation without env
    sys.path.insert(0, os.path.join(os.path.dirname(__file__),
                                    os.pardir, "src"))
    from repro.obs.metrics import TIMER_KEYS

#: Per-kernel metric keys excluded from the exact compare: wall-clock
#: timers plus the schema tag.
NON_DETERMINISTIC = frozenset(TIMER_KEYS) | {"schema"}

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "BENCH_BASELINE.json")
DEFAULT_CURRENT = "BENCH_ANALYSIS.json"
DEFAULT_TOLERANCE = 0.25

#: Per-kernel speedup ratios below this are informational only: so
#: close to parity that run-to-run noise in the constant overheads
#: swamps the tolerance band (GreenGauss sits near 1.5x).
RATIO_GATING_FLOOR = 2.0


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _counters(mode_doc: dict) -> Dict[str, float]:
    metrics = mode_doc.get("metrics") or {}
    return {k: v for k, v in metrics.items()
            if k not in NON_DETERMINISTIC and isinstance(v, (int, float))
            and not isinstance(v, bool)}


def _compare_kernel(name: str, cur: dict, base: dict, tolerance: float,
                    failures: List[str], notes: List[str]) -> None:
    for mode in ("fresh", "incremental"):
        cm, bm = cur.get(mode), base.get(mode)
        if not (isinstance(cm, dict) and isinstance(bm, dict)):
            continue
        if cm.get("verdicts") != bm.get("verdicts"):
            failures.append(
                f"{name}/{mode}: verdicts changed "
                f"{bm.get('verdicts')} -> {cm.get('verdicts')}")
        cc, bc = _counters(cm), _counters(bm)
        for key in sorted(set(cc) & set(bc)):
            if cc[key] != bc[key]:
                failures.append(
                    f"{name}/{mode}: deterministic counter {key} drifted "
                    f"{bc[key]} -> {cc[key]}")
        dropped = sorted(set(bc) ^ set(cc))
        if dropped:
            notes.append(f"{name}/{mode}: counter keys not in both runs "
                         f"(skipped): {', '.join(dropped)}")
    cur_ratio = cur.get("translate_clausify_speedup")
    base_ratio = base.get("translate_clausify_speedup")
    if isinstance(cur_ratio, (int, float)) \
            and isinstance(base_ratio, (int, float)):
        if base_ratio < RATIO_GATING_FLOOR:
            notes.append(
                f"{name}: baseline translate_clausify_speedup "
                f"{base_ratio:.2f}x is below the "
                f"{RATIO_GATING_FLOOR:.0f}x gating floor (dominated by "
                f"constant overheads); informational only, current "
                f"{cur_ratio:.2f}x")
            return
        floor = base_ratio * (1.0 - tolerance)
        if cur_ratio < floor:
            failures.append(
                f"{name}: translate_clausify_speedup {cur_ratio:.2f}x "
                f"fell below {floor:.2f}x "
                f"(baseline {base_ratio:.2f}x - {tolerance:.0%})")
        else:
            notes.append(f"{name}: translate_clausify_speedup "
                         f"{cur_ratio:.2f}x (floor {floor:.2f}x) ok")


def _compare_guarded_speedup(section: str, cur: dict, base: dict,
                             tolerance: float, failures: List[str],
                             notes: List[str]) -> None:
    """The backend speedup, gated on machine class."""
    cs, bs = cur.get(section), base.get(section)
    if not (isinstance(cs, dict) and isinstance(bs, dict)):
        return
    if cs.get("cpus") != bs.get("cpus"):
        notes.append(f"{section}: machine class differs "
                     f"(baseline {bs.get('cpus')} CPU(s), current "
                     f"{cs.get('cpus')}); speedup not compared")
        return
    if not (cs.get("speedup_enforced") and bs.get("speedup_enforced")):
        notes.append(f"{section}: speedup floor not enforced on this "
                     f"machine class; speedup not compared")
        return
    cur_speedup, base_speedup = cs.get("speedup"), bs.get("speedup")
    if not (isinstance(cur_speedup, (int, float))
            and isinstance(base_speedup, (int, float))):
        return
    floor = base_speedup * (1.0 - tolerance)
    if cur_speedup < floor:
        failures.append(
            f"{section}: speedup {cur_speedup:.2f}x fell below "
            f"{floor:.2f}x (baseline {base_speedup:.2f}x "
            f"- {tolerance:.0%})")
    else:
        notes.append(f"{section}: speedup {cur_speedup:.2f}x "
                     f"(floor {floor:.2f}x) ok")


def _compare_strategies(current: dict, baseline: dict,
                        failures: List[str], notes: List[str]) -> None:
    """Per-strategy codegen counters (``benchmarks/test_strategies.py``)
    are deterministic structure counts — atomic statements, reduction
    clauses, hoisted loops, preaccumulation temporaries — so they
    compare exactly, like the per-kernel solver counters. Skipped when
    either document lacks the section (older baseline, quick mode)."""
    cs, bs = current.get("strategies"), baseline.get("strategies")
    if not (isinstance(cs, dict) and isinstance(bs, dict)):
        if isinstance(bs, dict):
            notes.append("strategies: section absent from current run "
                         "(quick mode?); not compared")
        return
    if cs.get("kernel") != bs.get("kernel"):
        notes.append(f"strategies: kernel differs (baseline "
                     f"{bs.get('kernel')!r}, current {cs.get('kernel')!r}); "
                     f"not compared")
        return
    shared = sorted((set(cs) & set(bs)) - {"kernel"})
    for name in shared:
        cc, bc = cs[name], bs[name]
        if not (isinstance(cc, dict) and isinstance(bc, dict)):
            continue
        for key in sorted(set(cc) & set(bc)):
            if cc[key] != bc[key]:
                failures.append(
                    f"strategies/{name}: codegen counter {key} drifted "
                    f"{bc[key]} -> {cc[key]}")
    dropped = sorted((set(cs) ^ set(bs)) - {"kernel"})
    if dropped:
        notes.append(f"strategies: entries not in both runs (skipped): "
                     f"{', '.join(dropped)}")
    if shared:
        notes.append(f"strategies: {len(shared)} strategy counter "
                     f"set(s) compared exactly")


def compare(current: dict, baseline: dict,
            tolerance: float = DEFAULT_TOLERANCE
            ) -> Tuple[List[str], List[str]]:
    """``(failures, notes)`` of gating *current* against *baseline*."""
    failures: List[str] = []
    notes: List[str] = []
    if current.get("schema") != baseline.get("schema"):
        failures.append(f"schema mismatch: baseline "
                        f"{baseline.get('schema')!r}, current "
                        f"{current.get('schema')!r}")
        return failures, notes
    cur_kernels = current.get("kernels") or {}
    base_kernels = baseline.get("kernels") or {}
    shared = sorted(set(cur_kernels) & set(base_kernels))
    if not shared:
        failures.append("no kernel appears in both documents")
    skipped = sorted(set(base_kernels) - set(cur_kernels))
    if skipped:
        notes.append(f"kernels only in the baseline (quick mode?): "
                     f"{', '.join(skipped)}")
    for name in shared:
        _compare_kernel(name, cur_kernels[name], base_kernels[name],
                        tolerance, failures, notes)
    _compare_guarded_speedup("backend", current, baseline, tolerance,
                             failures, notes)
    _compare_strategies(current, baseline, failures, notes)
    return failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="perf-regression gate: BENCH_ANALYSIS.json vs the "
                    "committed baseline")
    parser.add_argument("current", nargs="?", default=DEFAULT_CURRENT,
                        help="the freshly measured document "
                             "(default: ./BENCH_ANALYSIS.json)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="the committed reference document")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="F",
                        help="allowed fractional ratio shrink "
                             "(default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current "
                             "document instead of gating")
    args = parser.parse_args(argv)
    try:
        current = load(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.current}: {exc}",
              file=sys.stderr)
        return 2
    if args.update:
        with open(args.baseline, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0
    try:
        baseline = load(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.baseline}: {exc}",
              file=sys.stderr)
        return 2
    failures, notes = compare(current, baseline, tolerance=args.tolerance)
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        print(f"{len(failures)} regression(s) against {args.baseline}")
        return 1
    print(f"no regressions against {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
