"""Golden answers for the four paper kernels under PYTHONHASHSEED 0–7.

Each seed runs in its own interpreter, because the hash seed is fixed
at interpreter start-up. The child analyses stencil 8, GFMC, LBM and
GreenGauss and reports, per kernel, the verdict of every (loop, array),
the solver's search counters and the witness model of every SAT
exploitation question (from the ``question`` trace events). Every seed
must reproduce the same golden values.

What this pins: no answer, and no step on the way to it, may depend on
set or dict-of-set iteration order. The spread assignment of
``repro.smt.search`` is the classic trap: which value each variable
gets decides whether the guess settles a check, so a hash-ordered
variable list changes the theory-check and branch counts (and can
change a witness) between a parent process and its workers.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
SEEDS = range(8)

CHILD = r'''
import json, sys
from repro.analysis import ActivityAnalysis
from repro.formad import FormADEngine
from repro.obs.tracer import CollectingTracer
from repro.programs import build_gfmc, build_greengauss, build_lbm, build_stencil

KERNELS = {
    "stencil 8": (lambda: build_stencil(8, name="stencil_large"),
                  ["uold"], ["unew"]),
    "GFMC": (build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    "LBM": (build_lbm, ["srcgrid"], ["dstgrid"]),
    "GreenGauss": (build_greengauss, ["dv"], ["grad"]),
}
COUNTERS = ("solver_sat", "solver_unsat", "theory_checks",
            "search_branches", "search_propagations", "memo_hits")
out = {}
for name, (builder, ind, dep) in KERNELS.items():
    proc = builder()
    tracer = CollectingTracer()
    engine = FormADEngine(proc, ActivityAnalysis(proc, ind, dep),
                          tracer=tracer)
    analyses = engine.analyze_all()
    out[name] = {
        "verdicts": {f"{a.loop.var}:{array}": v.safe for a in analyses
                     for array, v in a.verdicts.items()},
        "counters": {c: sum(getattr(a.stats, c) for a in analyses)
                     for c in COUNTERS},
        "witnesses": [e["witness"] for e in tracer.events
                      if e["type"] == "question" and e["result"] == "SAT"],
    }
json.dump(out, sys.stdout)
'''


def _counters(sat, unsat, theory=0, branches=0, propagations=0, memo=0):
    return {"solver_sat": sat, "solver_unsat": unsat,
            "theory_checks": theory, "search_branches": branches,
            "search_propagations": propagations, "memo_hits": memo}


#: Recorded with the model-evaluation code that predates level-tagged
#: evaluation; every seed gave these exact values.
GOLDEN = {
    "stencil 8": {
        "verdicts": {"i:uold": True, "i:unew": True},
        "counters": _counters(81, 45),
        "witnesses": [],
    },
    "GFMC": {
        "verdicts": {"is:cl": True, "is:cr": True,
                     "k12:cl": True, "k12:cr": True},
        "counters": _counters(17, 12, memo=9),
        "witnesses": [],
    },
    "LBM": {
        "verdicts": {"i:srcgrid": False, "i:dstgrid": True},
        "counters": _counters(362, 190, theory=5, branches=4, memo=1),
        "witnesses": [{"c_0": 3, "e_0": 0, "i_0": 3, "i_0'": 0, "n_0": 0,
                       "n_cell_entries_0": 1, "nw_0": 0, "w_0": 0}],
    },
    "GreenGauss": {
        "verdicts": {"ie:dv": True, "ie:grad": True},
        "counters": _counters(4, 3),
        "witnesses": [],
    },
}


def _run(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_paper_kernels_match_golden_under_every_hash_seed():
    # Two children at a time: each is one CPU-bound interpreter.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(SEEDS, pool.map(_run, SEEDS)))
    for seed, got in results.items():
        assert got == GOLDEN, f"PYTHONHASHSEED={seed} diverged"
