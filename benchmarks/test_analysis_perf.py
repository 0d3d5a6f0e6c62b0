"""Analysis-pipeline performance: two within-run ratios, each gated by
a constant floor.

* Incremental versus from-scratch solving. Each paper kernel is
  analysed through the incremental, memoized pipeline (the default) and
  through the seed-equivalent baseline that re-ackermannizes and
  re-clausifies the whole assertion stack on every ``check()``
  (``incremental=False``, memo off). The fresh/incremental ratio of
  translate+clausify time must clear the kernel's floor.
* The ``--jobs`` worker pool versus the inline analysis on a generated
  multi-loop workload: identical analyses everywhere, and a speedup
  floor wherever at least two CPUs are available.

Ratios, not times, so the floors hold across machines. The verdicts and
counters of both solver modes are pinned exactly, under every hash
seed, by ``tests/formad/test_hashseed_golden.py``.
"""

import gc
import math
import os
import time

import pytest

from repro.analysis import ActivityAnalysis
from repro.formad import FormADEngine
from repro.programs import (build_gfmc, build_greengauss, build_lbm,
                            build_stencil)
from repro.smt import clausify_cache_clear

#: Timed samples per mode, taken alternately; each ratio uses the
#: fastest sample of each mode.
REPEATS = 3

#: Each sample times a batch of cold analyses, sized so that its
#: incremental side takes at least this long (GFMC's one analysis takes
#: about 1.4 ms, where one scheduling hiccup decides a best-of-3).
MIN_SAMPLE_SECONDS = 0.02

#: The paper kernels (LBM is the rejection case) with their Table-1
#: independent/dependent sets.
KERNELS = {
    "stencil 8": (lambda: build_stencil(8, name="stencil_large"),
                  ["uold"], ["unew"]),
    "GFMC": (build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    "LBM": (build_lbm, ["srcgrid"], ["dstgrid"]),
    "GreenGauss": (build_greengauss, ["dv"], ["grad"]),
}

#: Floors on the fresh/incremental translate+clausify ratio: 0.75x the
#: ratios first recorded on a 2-CPU host (stencil 8 5.99x, GFMC 3.22x,
#: LBM 28.2x). Three runs on a 2-CPU host, with Ackermann rewrites kept
#: per term (which also speeds the fresh side's re-ackermannizing),
#: measured stencil 8 11.4-14.3x, GFMC 3.84-4.48x and LBM 46.3-50.2x.
#: Stencil 8's gap is re-translating the whole assertion stack, which no
#: cache hides. GreenGauss (1.35-1.50x) has no floor: that close to
#: parity, constant overheads swamp any band, so its ratio is only
#: reported.
SPEEDUP_FLOORS = {"stencil 8": 4.49, "GFMC": 2.42, "LBM": 21.15}


def _run_mode(name: str, incremental: bool) -> float:
    """Translate+clausify seconds of one full analysis of *name* in the
    given solver mode, with the global clause cache dropped first so the
    modes are compared cold."""
    builder, independents, dependents = KERNELS[name]
    proc = builder()
    activity = ActivityAnalysis(proc, independents, dependents)
    engine = FormADEngine(proc, activity, incremental=incremental,
                          use_question_memo=incremental)
    clausify_cache_clear()
    return sum(a.stats.translate_seconds + a.stats.clausify_seconds
               for a in engine.analyze_all())


def _sample(name: str, incremental: bool, batch: int) -> float:
    """Translate+clausify seconds of *batch* cold analyses of *name*,
    timed with the garbage collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return sum(_run_mode(name, incremental) for _ in range(batch))
    finally:
        if enabled:
            gc.enable()


def _speedup(name: str) -> float:
    fastest = min(_run_mode(name, True) for _ in range(REPEATS))
    batch = max(1, math.ceil(MIN_SAMPLE_SECONDS / max(fastest, 1e-9)))
    incremental, fresh = [], []
    for _ in range(REPEATS):
        incremental.append(_sample(name, True, batch))
        fresh.append(_sample(name, False, batch))
    return min(fresh) / max(min(incremental), 1e-9)


@pytest.mark.figure("analysis-perf")
def test_incremental_pipeline_speedup():
    ratios = {name: _speedup(name) for name in KERNELS}
    low = [name for name, floor in SPEEDUP_FLOORS.items()
           if ratios[name] < floor]
    measured = ", ".join(f"{name} {r:.2f}x" for name, r in ratios.items())
    assert not low, (
        f"translate+clausify ratio under its floor for {low}: "
        f"measured {measured}; floors {SPEEDUP_FLOORS}")


#: The pool comparison's width and its floor: 0.75x the 1.97x median
#: of three runs recorded on a 2-CPU host (pool 6.90-7.96 s against
#: inline 13.06-15.67 s; two later series of three gave 1.62-1.93x).
#: The floor only applies where it can physically hold: a worker pool
#: cannot beat one interpreter on a single-CPU box, where the identity
#: checks still run.
POOL_JOBS = 4
MIN_POOL_SPEEDUP = 1.5

#: Shape of the generated pool workload: loops per region count and
#: write statements per loop. 52 writes puts the inline run at about
#: 6 s per loop on 2 CPUs — far above worker start-up cost (the four
#: workers spend about 2 s of CPU importing and setting up), so the
#: measured speedup reflects solving, not process spawning. (At 23
#: writes, level-tagged model evaluation cut a loop to well under a
#: second, and the pool gained only about 0.8-1.3x; at 39 writes,
#: per-level clause preparation cut a loop from 3.5 s to 2.1 s, and
#: the pool gained 1.40-1.61x.)
POOL_LOOPS = 4
POOL_WRITES = 52

#: Deterministic per-loop counters that must not depend on where the
#: loops ran.
POOL_INVARIANT = ("consistency_checks", "exploitation_checks",
                  "memo_hits", "model_size", "unique_exprs",
                  "skipped_pairs", "solver_sat", "solver_unsat",
                  "solver_unknown")


def _pool_source(loops: int = POOL_LOOPS,
                 writes: int = POOL_WRITES) -> str:
    """*loops* independent stencil-style parallel regions, each with
    *writes* strided accumulation statements into its own array — all
    provably safe (stride == footprint), so every region plays out its
    full exploitation-question stream. The read offsets are scrambled
    (``s * 7 mod writes``) to keep the expression inventory large."""
    half = writes // 2
    lines = ["subroutine shardbench(uold, "
             + ", ".join(f"u{k}" for k in range(loops)) + ", w, n)",
             "  real, intent(in) :: uold(*)"]
    for k in range(loops):
        lines.append(f"  real, intent(inout) :: u{k}(*)")
    lines.append(f"  real, intent(in) :: w({writes})")
    lines.append("  integer, intent(in) :: n")

    def index(var, offset):
        if offset > 0:
            return f"{var} - {offset}"
        if offset < 0:
            return f"{var} + {-offset}"
        return var

    for k in range(loops):
        var = f"i{k}"
        lines.append("  !$omp parallel do")
        lines.append(f"  do {var} = {writes}, n - {half}, {writes}")
        for s in range(writes):
            wi = index(var, s - half)
            ri = index(var, (s * 7) % writes - half)
            lines.append(f"    u{k}({wi}) = u{k}({wi}) "
                         f"+ w({s + 1}) * uold({ri})")
        lines.append("  end do")
    lines.append("end subroutine shardbench")
    return "\n".join(lines) + "\n"


def _engine(source: str, outs) -> FormADEngine:
    from repro.ir import parse_program
    proc = parse_program(source)["shardbench"]
    return FormADEngine(proc, ActivityAnalysis(proc, ["uold"], outs))


def _inline(source: str, outs):
    engine = _engine(source, outs)
    clausify_cache_clear()
    start = time.perf_counter()
    analyses = engine.analyze_all()
    return analyses, time.perf_counter() - start


def _pool(source: str, outs):
    from repro.resilience.shards import ShardConfig, analyze_sharded
    engine = _engine(source, outs)
    clausify_cache_clear()
    start = time.perf_counter()
    analyses, _ = analyze_sharded(engine, source, "shardbench", ["uold"],
                                  outs, config=ShardConfig(jobs=POOL_JOBS))
    return analyses, time.perf_counter() - start


@pytest.mark.figure("analysis-perf")
def test_worker_pool_beats_inline():
    """``analyze --jobs 4`` vs the inline analysis on a generated 4-loop
    workload: identical analyses, and at least ``MIN_POOL_SPEEDUP``x
    faster wall-clock wherever more than one CPU is actually
    available. Each side is timed ``REPEATS`` times, alternately, and
    the floor compares each side's fastest sample, so one busy moment
    on a shared host cannot decide it."""
    source = _pool_source()
    outs = [f"u{k}" for k in range(POOL_LOOPS)]
    inline_times, pool_times = [], []
    for _ in range(REPEATS):
        inline_run, inline_t = _inline(source, outs)
        pool_run, pool_t = _pool(source, outs)
        inline_times.append(inline_t)
        pool_times.append(pool_t)
        assert len(inline_run) == len(pool_run) == POOL_LOOPS
        for local, remote in zip(inline_run, pool_run):
            assert not remote.degraded
            assert {n: v.safe for n, v in local.verdicts.items()} \
                == {n: v.safe for n, v in remote.verdicts.items()}
            assert all(v.safe for v in remote.verdicts.values())
            for name in POOL_INVARIANT:
                assert getattr(local.stats, name) \
                    == getattr(remote.stats, name), name

    cpus = len(os.sched_getaffinity(0))
    speedup = min(inline_times) / max(min(pool_times), 1e-9)
    if cpus >= 2:
        samples = ", ".join(f"{i:.2f}/{p:.2f}"
                            for i, p in zip(inline_times, pool_times))
        assert speedup >= MIN_POOL_SPEEDUP, (
            f"worker pool only {speedup:.2f}x the inline analysis "
            f"at jobs={POOL_JOBS} on {cpus} CPUs (need >= "
            f"{MIN_POOL_SPEEDUP}x, fastest against fastest; inline/pool "
            f"samples: {samples} s)")
