"""Rendering of FormAD analysis results (Table 1 of the paper).

One :class:`AnalysisReport` per analyzed kernel, with the paper's
columns: analysis time, model size, query count, unique index
expression count, and the region size in source lines. The report also
aggregates the per-phase performance breakdown (translate / clausify /
search seconds, cache and memo hit counts) that the incremental
pipeline records; EXPERIMENTS.md's "Analysis phase breakdown" table
shows those columns, and DESIGN.md ("Performance architecture")
explains how to read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .engine import LoopAnalysis


@dataclass
class AnalysisReport:
    """Table-1 row: one problem, aggregated over its parallel loops."""

    problem: str
    analyses: List[LoopAnalysis]

    @property
    def time_seconds(self) -> float:
        return sum(a.stats.time_seconds for a in self.analyses)

    @property
    def model_size(self) -> int:
        return sum(a.stats.model_size for a in self.analyses)

    @property
    def queries(self) -> int:
        return sum(a.stats.queries for a in self.analyses)

    @property
    def unique_exprs(self) -> int:
        return sum(a.stats.unique_exprs for a in self.analyses)

    @property
    def region_loc(self) -> int:
        return sum(a.stats.region_loc for a in self.analyses)

    @property
    def all_safe(self) -> bool:
        return all(a.all_safe for a in self.analyses)

    # ---------------------------------------------- phase breakdown
    @property
    def translate_seconds(self) -> float:
        return sum(a.stats.translate_seconds for a in self.analyses)

    @property
    def clausify_seconds(self) -> float:
        return sum(a.stats.clausify_seconds for a in self.analyses)

    @property
    def search_seconds(self) -> float:
        return sum(a.stats.search_seconds for a in self.analyses)

    @property
    def memo_hits(self) -> int:
        return sum(a.stats.memo_hits for a in self.analyses)

    @property
    def solver_checks(self) -> int:
        return sum(a.stats.solver_checks for a in self.analyses)

    @property
    def clausify_hits(self) -> int:
        return sum(a.stats.clausify_hits for a in self.analyses)

    @property
    def clausify_misses(self) -> int:
        return sum(a.stats.clausify_misses for a in self.analyses)

    def row(self) -> tuple:
        return (self.problem, self.time_seconds, self.model_size,
                self.queries, self.unique_exprs, self.region_loc)


def format_table1(reports: Sequence[AnalysisReport]) -> str:
    """Render the Table-1 layout of the paper."""
    header = f"{'problem':<12} {'time':>7} {'Z3 size':>8} {'queries':>8} " \
             f"{'exprs':>6} {'loc':>5}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(f"{r.problem:<12} {r.time_seconds:>7.3f} "
                     f"{r.model_size:>8d} {r.queries:>8d} "
                     f"{r.unique_exprs:>6d} {r.region_loc:>5d}")
    return "\n".join(lines)


def format_verdicts(analysis: LoopAnalysis) -> str:
    lines = [f"parallel loop over {analysis.loop.var!r}:"]
    for verdict in analysis.verdicts.values():
        lines.append(f"  {verdict}")
    if not analysis.verdicts:
        lines.append("  (no active shared arrays)")
    return "\n".join(lines)
