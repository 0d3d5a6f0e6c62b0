"""Clause *budget* vs. clause-cache *capacity* — two different knobs.

Regression for the conflated-constant bug: clausify's CNF blow-up guard
and the process-global LRU cache bound were the same ``100_000``
literal, so shrinking the cache for a memory-constrained long-lived
process (an ``analyze --jobs`` pool worker) would have silently
turned mid-sized formulas into ``ClausifyBudgetError`` → UNKNOWN
verdicts. The budget is solver *semantics*; the cache size is a memory
knob. These tests pin them apart:

* ``DEFAULT_MAX_CLAUSES`` is the signature default of the clausify
  entry points, independently of ``CACHE_MAXSIZE``;
* a formula bigger than a (monkeypatched tiny) cache still clausifies
  — capacity only evicts, it never rejects;
* the budget still rejects, regardless of cache capacity;
* a budget blow-up is never cached, so a later probe with a larger
  budget succeeds;
* ``clausify_cache_clear`` fully resets entries *and* counters — the
  call that gives back-to-back in-process runs a fresh process's cold
  cache.
"""

import importlib
import inspect
import sys
import threading

import pytest

from repro.smt import Int
from repro.smt.clausify import (CACHE_MAXSIZE, DEFAULT_MAX_CLAUSES,
                                ClausifyBudgetError, clausify,
                                clausify_cache_clear, clausify_cache_info,
                                clausify_cached, clausify_probe)
from repro.smt.terms import FAnd, FOr

# ``repro.smt``'s __init__ re-exports the clausify *function* under the
# submodule's name, so attribute imports resolve to the function; go
# through the module registry for the module object itself.
clausify_mod = importlib.import_module("repro.smt.clausify")


def _blowup(width: int, depth: int, tag: str) -> FOr:
    """An FOr of *depth* FAnds of *width* atoms: distributes to
    ``width ** depth`` clauses."""
    return FOr(tuple(
        FAnd(tuple(Int(f"b{tag}_{d}_{w}").ge(w) for w in range(width)))
        for d in range(depth)))


class TestConstantsAreIndependent:
    def test_signature_defaults_are_the_budget(self):
        for fn in (clausify, clausify_cached, clausify_probe):
            default = inspect.signature(fn).parameters["max_clauses"].default
            assert default == DEFAULT_MAX_CLAUSES, fn.__name__

    def test_budget_is_not_read_from_the_cache_bound(self, monkeypatch):
        """Shrinking the cache must not shrink the budget: with a
        2-entry cache, a formula distributing to 16 clauses still
        clausifies (capacity evicts, never rejects)."""
        monkeypatch.setattr(clausify_mod, "CACHE_MAXSIZE", 2)
        clausify_cache_clear()
        try:
            clauses = clausify(_blowup(4, 2, "tiny"))  # 16 > 2
            assert len(clauses) == 16
            # and capacity is enforced: the cache never exceeds it
            assert clausify_cache_info().currsize <= 2
        finally:
            clausify_cache_clear()

    def test_budget_rejects_regardless_of_cache_capacity(self, monkeypatch):
        monkeypatch.setattr(clausify_mod, "CACHE_MAXSIZE", 1_000_000)
        clausify_cache_clear()
        try:
            with pytest.raises(ClausifyBudgetError):
                clausify(_blowup(4, 3, "rej"), max_clauses=10)  # 64 > 10
        finally:
            clausify_cache_clear()


class TestBudgetBlowupsAreNotCached:
    def test_larger_budget_succeeds_after_blowup(self):
        clausify_cache_clear()
        try:
            formula = _blowup(3, 3, "retry")  # 27 clauses
            with pytest.raises(ClausifyBudgetError):
                clausify(formula, max_clauses=5)
            # the failed attempt must not have poisoned the cache
            clauses, hit = clausify_probe(formula, max_clauses=100)
            assert not hit
            assert len(clauses) == 27
        finally:
            clausify_cache_clear()


class TestProbeLocking:
    """The probe takes the cache lock exactly once on the hit path and
    resolves racing duplicate computations first-insert-wins, so every
    caller shares one tuple object per formula (see the miss-path
    comment in :mod:`repro.smt.clausify`)."""

    def test_hit_returns_the_shared_cached_object(self):
        clausify_cache_clear()
        try:
            formula = FAnd((Int("bid_a").ge(0), Int("bid_b").le(3)))
            first, hit0 = clausify_probe(formula)
            again, hit1 = clausify_probe(formula)
            assert (hit0, hit1) == (False, True)
            assert again is first
        finally:
            clausify_cache_clear()

    def test_racing_duplicates_share_the_first_inserted_tuple(self, monkeypatch):
        """N threads miss on the same formula simultaneously (the CNF
        distribution runs outside the lock, so all of them compute a
        candidate tuple) — only the first insert may land, and *every*
        caller must get that one shared object. A later overwrite would
        silently fork the identity that translated clauses key on and
        double peak memory for recurring assertions."""
        n = 4
        barrier = threading.Barrier(n)
        real_nnf = clausify_mod.to_nnf

        def rendezvous_nnf(formula, negate=False):
            # nobody inserts until everyone has missed
            barrier.wait(timeout=10)
            return real_nnf(formula, negate)

        clausify_cache_clear()
        try:
            monkeypatch.setattr(clausify_mod, "to_nnf", rendezvous_nnf)
            formula = FOr((Int("brace").ge(0), Int("brace").le(9)))
            results = [None] * n

            def probe(i):
                results[i] = clausify_probe(formula)

            threads = [threading.Thread(target=probe, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert all(r is not None for r in results)
            clauses0 = results[0][0]
            # per-call attribution: every concurrent caller missed ...
            assert [hit for _, hit in results] == [False] * n
            # ... yet they all share the one first-inserted tuple
            assert all(clauses is clauses0 for clauses, _ in results)

            monkeypatch.setattr(clausify_mod, "to_nnf", real_nnf)
            later, hit = clausify_probe(formula)
            assert hit and later is clauses0
            info = clausify_cache_info()
            assert (info.misses, info.hits, info.currsize) == (n, 1, 1)
        finally:
            clausify_cache_clear()

    def test_contended_hits_are_exact(self):
        """1 and then 4 threads each sweep a primed working set of the
        shapes the analysis caches (knowledge disjunctions, question
        conjunctions) 100 times: every probe hits and returns the one
        shared tuple, and the cache's counters add up to the probes."""
        formulas = [FOr((FAnd((Int(f"wsa{k}").ge(0), Int(f"wsb{k}").le(k))),
                         Int(f"wsc{k}").ge(k + 1))) for k in range(64)]
        sweeps = 100
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for nthreads in (1, 4):
                clausify_cache_clear()
                shared = [clausify_probe(f)[0] for f in formulas]
                oks = [None] * nthreads

                def sweep(i):
                    ok = True
                    for _ in range(sweeps):
                        for formula, expect in zip(formulas, shared):
                            clauses, hit = clausify_probe(formula)
                            ok = ok and hit and clauses is expect
                    oks[i] = ok

                threads = [threading.Thread(target=sweep, args=(i,))
                           for i in range(nthreads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert oks == [True] * nthreads
                info = clausify_cache_info()
                assert (info.misses, info.hits, info.currsize) == (
                    len(formulas), nthreads * sweeps * len(formulas),
                    len(formulas))
        finally:
            sys.setswitchinterval(interval)
            clausify_cache_clear()


class TestCacheClearResetsEverything:
    def test_entries_and_counters_reset(self):
        """Back-to-back in-process runs call this between runs; both
        the entries and the hit/miss counters must go to zero so
        per-run statistics start from a clean slate."""
        clausify_cache_clear()
        formula = Int("bclear").ge(0)
        clausify(formula)   # miss
        clausify(formula)   # hit
        info = clausify_cache_info()
        assert info.misses == 1 and info.hits == 1 and info.currsize == 1
        clausify_cache_clear()
        info = clausify_cache_info()
        assert info == (0, 0, CACHE_MAXSIZE, 0)
