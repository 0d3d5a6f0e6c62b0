"""Table 1 regeneration: FormAD analysis statistics per kernel."""

from __future__ import annotations

from typing import List

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


def run_table1(tracer: NullTracer = NULL_TRACER,
               deadline=None) -> List[AnalysisReport]:
    """Run FormAD on all six Table-1 problems, in the table's order.

    ``deadline`` (a :class:`repro.resilience.deadline.Deadline`) bounds the
    whole sweep: expired problems degrade to safeguards (UNKNOWN
    verdicts) instead of running over.
    """
    return [AnalysisReport(name, analyze_formad(builder(), independents,
                                                dependents, tracer=tracer,
                                                deadline=deadline))
            for name, (builder, independents, dependents)
            in TABLE1_PROBLEMS.items()]


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
