"""Golden answers for the four paper kernels under PYTHONHASHSEED 0–7.

Each seed runs in its own interpreter, because the hash seed is fixed
at interpreter start-up. The child analyses stencil 8, GFMC, LBM and
GreenGauss in both solver modes: incremental with the question memo
(the default) and fresh (``incremental=False, use_question_memo=False``,
which re-translates and re-clausifies the whole assertion stack on
every check). The clause cache is cleared before each run, so each run
starts cold. Per kernel and mode it reports the verdict of every
(loop, array), all of :data:`~repro.obs.metrics.COUNTER_KEYS`, and the
witness model of every SAT exploitation question (from the
``question`` trace events). Every seed must reproduce the same golden
values.

What this pins: no answer, and no step on the way to it, may depend on
set or dict-of-set iteration order. The spread assignment of
``repro.smt.search`` is the classic trap: which value each variable
gets decides whether the guess settles a check, so a hash-ordered
variable list changes the theory-check and branch counts (and can
change a witness) between a parent process and its workers. Because
both modes share one verdict and witness table, it also pins that the
solving mode never changes an answer, and that a fresh run never hits
the memo.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.obs.metrics import COUNTER_KEYS

SRC = Path(__file__).resolve().parents[2] / "src"
SEEDS = range(8)
MODES = ("incremental", "fresh")

CHILD = r'''
import json, sys
from repro.analysis import ActivityAnalysis
from repro.formad import FormADEngine
from repro.obs.metrics import COUNTER_KEYS, stats_metrics
from repro.obs.tracer import CollectingTracer
from repro.programs import build_gfmc, build_greengauss, build_lbm, build_stencil
from repro.smt import clausify_cache_clear

KERNELS = {
    "stencil 8": (lambda: build_stencil(8, name="stencil_large"),
                  ["uold"], ["unew"]),
    "GFMC": (build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    "LBM": (build_lbm, ["srcgrid"], ["dstgrid"]),
    "GreenGauss": (build_greengauss, ["dv"], ["grad"]),
}
out = {}
for name, (builder, ind, dep) in KERNELS.items():
    out[name] = {}
    for mode, incremental in (("incremental", True), ("fresh", False)):
        proc = builder()
        tracer = CollectingTracer()
        engine = FormADEngine(proc, ActivityAnalysis(proc, ind, dep),
                              tracer=tracer, incremental=incremental,
                              use_question_memo=incremental)
        clausify_cache_clear()
        analyses = engine.analyze_all()
        metrics = stats_metrics(a.stats for a in analyses)
        out[name][mode] = {
            "verdicts": {f"{a.loop.var}:{array}": v.safe for a in analyses
                         for array, v in a.verdicts.items()},
            "counters": {c: metrics[c] for c in COUNTER_KEYS},
            "witnesses": [e["witness"] for e in tracer.events
                          if e["type"] == "question"
                          and e["result"] == "SAT"],
        }
json.dump(out, sys.stdout)
'''


def _counters(**nonzero):
    """All of ``COUNTER_KEYS``: the given values, zero elsewhere."""
    unknown = set(nonzero) - set(COUNTER_KEYS)
    assert not unknown, unknown
    return {key: nonzero.get(key, 0) for key in COUNTER_KEYS}


#: Every seed gives these exact values, in both modes.
GOLDEN = {
    "stencil 8": {
        "verdicts": {"i:uold": True, "i:unew": True},
        "witnesses": [],
        "incremental": _counters(
            queries=126, consistency_checks=81, exploitation_checks=45,
            solver_checks=126, solver_sat=81, solver_unsat=45,
            formulas_translated=127, clausify_hits=1, clausify_misses=126,
            model_size=82, unique_exprs=9),
        "fresh": _counters(
            queries=126, consistency_checks=81, exploitation_checks=45,
            solver_checks=126, solver_sat=81, solver_unsat=45,
            formulas_translated=7137, clausify_hits=7011,
            clausify_misses=126, model_size=82, unique_exprs=9),
    },
    "GFMC": {
        "verdicts": {"is:cl": True, "is:cr": True,
                     "k12:cl": True, "k12:cr": True},
        "witnesses": [],
        "incremental": _counters(
            queries=38, consistency_checks=17, exploitation_checks=21,
            memo_hits=9, solver_checks=29, solver_sat=17, solver_unsat=12,
            formulas_translated=48, clausify_hits=17, clausify_misses=31,
            model_size=19, unique_exprs=5),
        "fresh": _counters(
            queries=38, consistency_checks=17, exploitation_checks=21,
            solver_checks=38, solver_sat=17, solver_unsat=21,
            formulas_translated=517, clausify_hits=486, clausify_misses=31,
            model_size=19, unique_exprs=5),
    },
    "LBM": {
        "verdicts": {"i:srcgrid": False, "i:dstgrid": True},
        "witnesses": [{"c_0": 3, "e_0": 0, "i_0": 3, "i_0'": 0, "n_0": 0,
                       "n_cell_entries_0": 1, "nw_0": 0, "w_0": 0}],
        "incremental": _counters(
            queries=553, consistency_checks=361, exploitation_checks=192,
            memo_hits=1, solver_checks=552, solver_sat=362,
            solver_unsat=190, theory_checks=5, search_branches=4,
            formulas_translated=553, clausify_misses=553, model_size=362,
            unique_exprs=19),
        "fresh": _counters(
            queries=553, consistency_checks=361, exploitation_checks=192,
            solver_checks=553, solver_sat=362, solver_unsat=191,
            theory_checks=5, search_branches=4, formulas_translated=135398,
            clausify_hits=134845, clausify_misses=553, model_size=362,
            unique_exprs=19),
    },
    "GreenGauss": {
        "verdicts": {"ie:dv": True, "ie:grad": True},
        "witnesses": [],
        "incremental": _counters(
            queries=7, consistency_checks=4, exploitation_checks=3,
            solver_checks=7, solver_sat=4, solver_unsat=3,
            formulas_translated=12, clausify_hits=4, clausify_misses=8,
            model_size=5, unique_exprs=2),
        "fresh": _counters(
            queries=7, consistency_checks=4, exploitation_checks=3,
            solver_checks=7, solver_sat=4, solver_unsat=3,
            formulas_translated=32, clausify_hits=24, clausify_misses=8,
            model_size=5, unique_exprs=2),
    },
}

#: What the child reports: per kernel and mode, the shared verdicts and
#: witnesses with that mode's counters.
EXPECTED = {
    name: {mode: {"verdicts": golden["verdicts"],
                  "counters": golden[mode],
                  "witnesses": golden["witnesses"]} for mode in MODES}
    for name, golden in GOLDEN.items()
}


def _start(seed: int) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", CHILD], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _finish(child: subprocess.Popen) -> dict:
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    assert child.returncode == 0, err
    return json.loads(out)


def test_paper_kernels_match_golden_under_every_hash_seed():
    # Two children at a time: each is one CPU-bound interpreter.
    seeds = list(SEEDS)
    results = {}
    for pair in (seeds[i:i + 2] for i in range(0, len(seeds), 2)):
        children = {seed: _start(seed) for seed in pair}
        for seed, child in children.items():
            results[seed] = _finish(child)
    for seed, got in results.items():
        assert got == EXPECTED, f"PYTHONHASHSEED={seed} diverged"
