"""Deterministic codegen counters for every registered safeguard
strategy.

One kernel (the small stencil spec at reduced size) is differentiated
once per registered strategy and the *structure* of the generated
adjoint is counted: atomic statements, reduction clauses, parallel
loops, preaccumulation temporaries. The counts are machine-independent
— the same code must produce the same numbers anywhere — so
``check_regression.py`` compares them exactly against the committed
baseline (key ``strategies``). A drift means the code generator
changed behavior, not that the machine was slow.

Alphabetically after ``test_analysis_perf.py``: loads the existing
``BENCH_ANALYSIS.json`` it writes fresh and updates it in place.
"""

import json
from pathlib import Path

from repro import differentiate
from repro.ad.strategies import registered_strategies
from repro.experiments.specs import small_stencil_spec
from repro.ir.stmt import Assign, Loop, walk_stmts

KERNEL = "stencil_small"


def _codegen_counters(proc) -> dict:
    stmts = list(walk_stmts(proc.body))
    return {
        "atomic_statements": sum(
            1 for s in stmts if isinstance(s, Assign) and s.atomic),
        "reduction_clauses": sum(
            len(s.reduction) for s in stmts
            if isinstance(s, Loop) and s.parallel),
        "parallel_loops": sum(
            1 for s in stmts if isinstance(s, Loop) and s.parallel),
        "preacc_temps": sum(
            1 for name in proc.locals if name.startswith("ad_pre")),
        "statements": len(stmts),
    }


def test_strategy_codegen_counters_recorded():
    spec = small_stencil_spec(n=64)
    section = {"kernel": KERNEL}
    for strategy in registered_strategies():
        adj = differentiate(spec.proc, spec.independents, spec.dependents,
                            strategy=strategy.name)
        section[strategy.name] = _codegen_counters(adj.procedure)

    # Sanity bars the counters must clear regardless of the baseline:
    # atomics guard every shared increment, reduction privatizes
    # instead, preaccumulate flushes once per buffered location, and
    # the fully hoisted transposed adjoint needs no safeguard at all.
    assert section["atomic"]["atomic_statements"] > 0
    assert section["reduction"]["reduction_clauses"] > 0
    assert section["reduction"]["atomic_statements"] == 0
    assert section["preaccumulate"]["preacc_temps"] > 0
    assert section["preaccumulate"]["atomic_statements"] == \
        section["preaccumulate"]["preacc_temps"]
    assert section["transposed"]["atomic_statements"] == 0
    assert section["transposed"]["reduction_clauses"] == 0
    assert section["transposed"]["parallel_loops"] >= 2
    assert section["shared"]["atomic_statements"] == 0

    path = Path(__file__).resolve().parent.parent / "BENCH_ANALYSIS.json"
    doc = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
    doc["strategies"] = section
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
