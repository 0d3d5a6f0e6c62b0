"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is one ``bench/run.py --out`` result. Files are grouped by
workload; within a workload the i-th parent run is paired with the
i-th change run, which is how alternating runs are meant to be given.
For every (workload, end-to-end metric) pair the report shows each
side's median and quartiles, the share of pairs the change wins (ties
count for neither), and whether the medians differ by more than the
parent's interquartile range. A pair is

* ``regression`` when the change's median is worse than the parent's
  by more than the metric's bound in ``BENCHMARK.json``, or when the
  change's failure rate is higher (always);
* ``unresolved`` when either side's spread (interquartile range over
  median) exceeds the bound, unless every change run beats every parent
  run;
* ``gain`` when there are at least ten pairs, the change wins at least
  9/10 of them and the median gap exceeds the parent's interquartile
  range;
* ``same`` otherwise.

The exit code is 1 when any pair is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win to claim a gain, and the fewest
#: pairs on which a gain can be claimed at all.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def compare_metric(parent: Sequence[float], change: Sequence[float],
                   bound: float, higher_is_better: bool) -> dict:
    sign = 1.0 if higher_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    gap_exceeds_iqr = abs(cm - pm) > (p3 - p1)
    if max(spread(parent), spread(change)) > bound and not beats_all:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and gap_exceeds_iqr):
        verdict = "gain"
    else:
        verdict = "same"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(pairs), "gap_exceeds_iqr": gap_exceeds_iqr,
            "verdict": verdict}


def load(paths: Sequence[Path]) -> Dict[str, List[dict]]:
    """Untraced results grouped by workload, in the order given."""
    out: Dict[str, List[dict]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc.get("trace"):
            continue
        out.setdefault(doc["workload"], []).append(doc)
    return out


def fail_rate(runs: Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]],
            metrics: Sequence[dict]) -> List[dict]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_fail, c_fail = fail_rate(p_runs), fail_rate(c_runs)
        rows.append({"workload": workload, "metric": "fail_rate",
                     "parent": (p_fail,) * 3, "change": (c_fail,) * 3,
                     "wins": 0, "pairs": 0, "gap_exceeds_iqr": False,
                     "verdict": "regression" if c_fail > p_fail else "same"})
        for spec in metrics:
            name = spec["name"]
            p = [r["metrics"][name]["value"] for r in p_runs
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if name in r["metrics"]]
            if not p or not c:
                continue
            rows.append({"workload": workload, "metric": name,
                         **compare_metric(p, c, spec["bound"],
                                          spec["better"] == "higher")})
    return rows


def format_row(row: dict) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    return (f"{row['workload']:<19} {row['metric']:<12} "
            f"parent {side(row['parent'])}  change {side(row['change'])}  "
            f"wins {row['wins']}/{row['pairs']}  "
            f"gap>iqr {'yes' if row['gap_exceeds_iqr'] else 'no'}  "
            f"{row['verdict']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="bench/compare.py",
        description="Compare parent and change benchmark results.")
    p.add_argument("--parent", nargs="+", type=Path, required=True)
    p.add_argument("--change", nargs="+", type=Path, required=True)
    args = p.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.parent), load(args.change),
                   config["end_to_end"])
    if not rows:
        print("compare: no workload has untraced results on both sides",
              file=sys.stderr)
        return 2
    for row in rows:
        print(format_row(row))
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
