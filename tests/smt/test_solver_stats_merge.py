"""Stats aggregation audit: no counter may be silently dropped.

PR 1 added per-phase fields to ``SolverStats``; later work added more
and routes them through ``AnalysisStats.absorb_solver``. These tests
pin the aggregation paths:

* ``absorb_solver`` accounts for every ``SolverStats`` field — a new
  field that is not mapped (or deliberately recoverable) fails the
  audit here instead of silently vanishing from Table 1/metrics;
* solvers probing the shared clause cache from several threads each
  count only their own hits and misses.

Per-loop counters of a ``--jobs`` worker pool against the inline run
are pinned on every ``--json`` metric by
``tests/resilience/test_backend_identity.py``.
"""

import dataclasses
import itertools
import sys
import threading

from repro.formad.engine import AnalysisStats
from repro.smt import Int, Solver
from repro.smt.clausify import clausify_cache_clear
from repro.smt.solver import SolverStats

INT_FIELDS = [f.name for f in dataclasses.fields(SolverStats)
              if f.type == "int"]
FLOAT_FIELDS = [f.name for f in dataclasses.fields(SolverStats)
                if f.type == "float"]


def distinct_stats(offset: int) -> SolverStats:
    """A SolverStats whose every field holds a distinct sentinel."""
    values = {}
    for n, name in enumerate(INT_FIELDS):
        values[name] = offset + n
    for n, name in enumerate(FLOAT_FIELDS):
        values[name] = float(offset + 100 + n) / 8.0
    return SolverStats(**values)


class TestAbsorbSolver:
    #: SolverStats field -> how AnalysisStats records it. ``checks`` is
    #: deliberately recoverable instead of stored. Extending
    #: SolverStats without extending this table fails test_audit.
    MAPPING = {
        "checks": lambda a: a.solver_sat + a.solver_unsat + a.solver_unknown,
        "sat": lambda a: a.solver_sat,
        "unsat": lambda a: a.solver_unsat,
        "unknown": lambda a: a.solver_unknown,
        "theory_checks": lambda a: a.theory_checks,
        "branches": lambda a: a.search_branches,
        "propagations": lambda a: a.search_propagations,
        "time_seconds": lambda a: a.solver_time_seconds,
        "translate_seconds": lambda a: a.translate_seconds,
        "clausify_seconds": lambda a: a.clausify_seconds,
        "search_seconds": lambda a: a.search_seconds,
        "formulas_translated": lambda a: a.formulas_translated,
        "congruence_axioms": lambda a: a.congruence_axioms,
        "clausify_hits": lambda a: a.clausify_hits,
        "clausify_misses": lambda a: a.clausify_misses,
        "unknown_timeout": lambda a: a.unknown_timeout,
        "unknown_budget": lambda a: a.unknown_budget,
        "unknown_solver": lambda a: a.unknown_solver,
    }

    def test_audit_covers_every_solver_stats_field(self):
        assert set(self.MAPPING) == set(SolverStats.__dataclass_fields__)

    def test_no_field_is_dropped(self):
        solver = Solver()
        # sentinel values; make the checks identity hold
        solver.stats = distinct_stats(3)
        solver.stats.checks = (solver.stats.sat + solver.stats.unsat
                               + solver.stats.unknown)
        analysis = AnalysisStats()
        analysis.absorb_solver(solver)
        for name, read in self.MAPPING.items():
            assert read(analysis) == getattr(solver.stats, name), name


_fresh = itertools.count()


class TestConcurrentClausifyAttribution:
    """Regression (PR 3): clausify hit/miss stats were before/after
    deltas of the process-global cache counters, so concurrent solvers
    booked each other's traffic. Attribution is now per probe."""

    N = 150

    def _run_solver(self, results, index, barrier):
        names = [f"cc{next(_fresh)}" for _ in range(self.N)]
        solver = Solver()
        for k, name in enumerate(names):
            solver.add(Int(name).ge(k))
        barrier.wait()
        solver.check()
        results[index] = solver

    def test_threads_only_count_their_own_misses(self):
        clausify_cache_clear()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaved translation
        try:
            results = [None, None]
            barrier = threading.Barrier(2)
            threads = [threading.Thread(target=self._run_solver,
                                        args=(results, i, barrier))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        for solver in results:
            # each solver translated exactly N globally-fresh formulas:
            # N misses, 0 hits, regardless of what the other thread did
            assert solver.stats.clausify_misses == self.N
            assert solver.stats.clausify_hits == 0

    def test_hits_are_attributed_to_the_probing_solver(self):
        clausify_cache_clear()
        name = f"cc{next(_fresh)}"
        warm = Solver()
        warm.add(Int(name).ge(1))
        warm.check()
        assert warm.stats.clausify_misses == 1
        reuse = Solver()
        reuse.add(Int(name).ge(1))
        reuse.check()
        assert reuse.stats.clausify_hits == 1
        assert reuse.stats.clausify_misses == 0
        # the warm solver's counters are untouched by the second probe
        assert warm.stats.clausify_hits == 0
        assert warm.stats.clausify_misses == 1

