"""Table 1 regeneration: FormAD analysis statistics per kernel."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from .. import analyze_formad
from ..formad import AnalysisReport, format_table1
from ..obs.tracer import NULL_TRACER, NullTracer
from ..programs import (build_gfmc, build_gfmc_star, build_greengauss,
                        build_lbm, build_stencil)
from .paper_reference import PAPER_TABLE1

#: Problem name -> (builder, independents, dependents); names match the
#: paper's Table 1 rows.
TABLE1_PROBLEMS = {
    "stencil 1": (lambda: build_stencil(1, name="stencil_small"),
                  ["uold"], ["unew"]),
    "stencil 8": (lambda: build_stencil(8, name="stencil_large"),
                  ["uold"], ["unew"]),
    "GFMC": (build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    "GFMC*": (build_gfmc_star, ["cl", "cr"], ["cl", "cr"]),
    "LBM": (build_lbm, ["srcgrid"], ["dstgrid"]),
    "GreenGauss": (build_greengauss, ["dv"], ["grad"]),
}


def run_table1(jobs: Optional[int] = None,
               tracer: NullTracer = NULL_TRACER,
               deadline=None,
               backend: str = "thread") -> List[AnalysisReport]:
    """Run FormAD on all six Table-1 problems.

    ``jobs`` > 1 fans the independent problems out over a thread pool
    (each problem builds its own procedure and engine, so the analyses
    share no mutable state). Report order is fixed either way.
    ``deadline`` (a :class:`repro.resilience.Deadline`) bounds the
    whole sweep: expired problems degrade to safeguards (UNKNOWN
    verdicts) instead of running over. ``backend="process"`` analyzes
    each problem in its own persistent worker process (the pool
    threads then only marshal JSON and wait on pipes, so ``jobs``
    problems really run concurrently — docs/SCALING.md).
    ``backend="auto"`` resolves to ``process`` only when ``jobs`` ≥ 2
    on a multi-CPU host, and to ``thread`` otherwise
    (:func:`repro.resilience.resolve_backend`).
    """
    if backend == "auto":
        from ..resilience.shards import resolve_backend
        backend = resolve_backend("auto", work_items=len(TABLE1_PROBLEMS),
                                  jobs=jobs)

    def one(item) -> AnalysisReport:
        name, (builder, independents, dependents) = item
        if backend == "process":
            from .. import format_procedure
            from ..resilience.shards import analyze_program_remote
            proc = builder()
            # The printer round-trips faithfully for these kernels
            # (tests/ir/test_printer.py), so the rendered source is
            # the same analysis input the in-process path sees.
            return AnalysisReport(
                name, analyze_program_remote(
                    format_procedure(proc), proc.name, independents,
                    dependents, tracer=tracer, deadline=deadline))
        return AnalysisReport(
            name, analyze_formad(builder(), independents, dependents,
                                 tracer=tracer, deadline=deadline))

    items = list(TABLE1_PROBLEMS.items())
    if jobs is not None and jobs > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(one, items))
    return [one(item) for item in items]


def format_table1_with_reference(reports: List[AnalysisReport]) -> str:
    """Side-by-side: measured vs the paper's Table 1."""
    lines = ["measured:"]
    lines.append(format_table1(reports))
    lines.append("")
    lines.append("paper (Table 1):")
    header = f"{'problem':<12} {'time':>7} {'Z3 size':>8} {'queries':>8} " \
             f"{'exprs':>6} {'loc':>5}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, (t, size, q, e, loc) in PAPER_TABLE1.items():
        lines.append(f"{name:<12} {t:>7.3f} {size:>8d} {q:>8d} {e:>6d} {loc:>5d}")
    return "\n".join(lines)
