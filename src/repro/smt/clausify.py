"""Conversion of formulas to clause form.

The pipeline is NNF → disequality splitting → CNF by distribution.
FormAD's formulas are shallow (knowledge assertions are disjunctions of
atoms, questions are conjunctions of atoms), so naive distribution is
fine; a blow-up guard raises :class:`ClausifyBudgetError` if a
pathological input is ever fed in, which the solver maps to UNKNOWN.

The output is a list of clauses; each clause is a tuple of *positive*
:class:`~repro.smt.terms.FAtom` literals with relations restricted to
``LE``/``LT``/``GE``/``GT``/``EQ`` (``NE`` is split into ``LT ∨ GT``,
valid over the integers; negations are folded into the relation).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, NamedTuple, Sequence, Tuple

from .terms import (FAnd, FAtom, FFalse, FNot, FOr, Formula, FTrue, Rel)

Clause = Tuple[FAtom, ...]


class ClausifyBudgetError(RuntimeError):
    """CNF distribution exceeded the clause budget."""


def to_nnf(formula: Formula, negate: bool = False) -> Formula:
    """Negation normal form with negations folded into atom relations."""
    if isinstance(formula, FAtom):
        return FAtom(formula.rel.negate(), formula.left, formula.right) if negate else formula
    if isinstance(formula, FNot):
        return to_nnf(formula.operand, not negate)
    if isinstance(formula, FAnd):
        parts = tuple(to_nnf(f, negate) for f in formula.operands)
        return FOr(parts) if negate else FAnd(parts)
    if isinstance(formula, FOr):
        parts = tuple(to_nnf(f, negate) for f in formula.operands)
        return FAnd(parts) if negate else FOr(parts)
    if isinstance(formula, FTrue):
        return FFalse() if negate else formula
    if isinstance(formula, FFalse):
        return FTrue() if negate else formula
    raise TypeError(f"not a formula: {formula!r}")  # pragma: no cover


def split_atom(atom: FAtom) -> Tuple[FAtom, ...]:
    """Replace NE by its integer case split; pass other atoms through."""
    if atom.rel is Rel.NE:
        return (FAtom(Rel.LT, atom.left, atom.right),
                FAtom(Rel.GT, atom.left, atom.right))
    return (atom,)


#: Default CNF clause *budget*: the blow-up guard on distribution.
#: Deliberately a separate constant from :data:`CACHE_MAXSIZE` — the
#: budget is solver semantics (blowing it turns a check UNKNOWN), the
#: cache bound is a memory knob; tuning one must never change the
#: other (see tests/smt/test_clausify_budget.py).
DEFAULT_MAX_CLAUSES = 100_000

#: LRU bound of the process-global per-formula clause cache.
CACHE_MAXSIZE = 100_000


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-compatible statistics record."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


# The clause cache is process-global (the same knowledge assertions and
# congruence axioms recur across thousands of checks in one FormAD
# analysis, and across loops). It is a hand-rolled LRU rather than
# ``functools.lru_cache`` so that :func:`clausify_probe` can report
# *per-call* hit/miss outcomes: with only global counters, concurrent
# solver threads taking before/after deltas mis-attribute each other's
# hits and misses to their own ``SolverStats`` (the PR-3 bug).
_cache: "OrderedDict[Tuple[Formula, int], Tuple[Clause, ...]]" = OrderedDict()
_cache_lock = threading.Lock()
_hits = 0
_misses = 0


def clausify_probe(formula: Formula, *,
                   max_clauses: int = DEFAULT_MAX_CLAUSES) -> Tuple[Tuple[Clause, ...], bool]:
    """Clausify through the cache, reporting this call's outcome.

    Returns ``(clauses, was_hit)``. The returned tuple is the shared
    cached object — callers must not mutate it. ``was_hit`` belongs to
    *this* call only, which is what makes per-solver hit/miss stats
    correct when solvers translate from several threads at once (a
    campaign's feeders minimizing violations in the parent, or any
    library caller; the global counters remain available through
    :func:`clausify_cache_info`).

    A :class:`ClausifyBudgetError` escapes uncached: budget blow-ups
    depend on ``max_clauses``, which is part of the key anyway, but a
    poisoned entry must never satisfy a later identical probe.
    """
    global _hits, _misses
    key = (formula, max_clauses)
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _hits += 1
            return cached, True
        _misses += 1
    # Compute outside the lock: distribution can be expensive and other
    # threads' probes must not serialize behind it. Racing duplicate
    # computations produce equal immutable values; the *first* insert
    # wins below so every caller shares one tuple object (a later
    # overwrite would churn the shared identity that the translated
    # clause stores key on, and silently double peak memory).
    clauses = tuple(_cnf(to_nnf(formula), max_clauses))
    with _cache_lock:
        existing = _cache.get(key)
        if existing is not None:
            _cache.move_to_end(key)
            return existing, False
        _cache[key] = clauses        # inserts at the MRU end already
        while len(_cache) > CACHE_MAXSIZE:
            _cache.popitem(last=False)
    return clauses, False


def clausify(formula: Formula, *, max_clauses: int = DEFAULT_MAX_CLAUSES) -> List[Clause]:
    """CNF clauses for *formula*. ``[]`` means trivially true; a clause
    ``()`` (empty) means trivially false. Cached per formula — the same
    knowledge assertions and congruence axioms recur across thousands of
    checks in a FormAD analysis."""
    return list(clausify_probe(formula, max_clauses=max_clauses)[0])


def clausify_cached(formula: Formula, *, max_clauses: int = DEFAULT_MAX_CLAUSES) -> Tuple[Clause, ...]:
    """Like :func:`clausify` but returns the (shared, immutable) cached
    tuple without copying — callers must not mutate it."""
    return clausify_probe(formula, max_clauses=max_clauses)[0]


def clausify_cache_info() -> CacheInfo:
    """Aggregate statistics of the per-formula clause cache. The cache
    (and these counters) are process-global; for per-solver attribution
    use :func:`clausify_probe`'s per-call outcome instead of deltas."""
    with _cache_lock:
        return CacheInfo(_hits, _misses, CACHE_MAXSIZE, len(_cache))


def clausify_cache_clear() -> None:
    """Drop the per-formula clause cache. Benchmarks and tests use this
    to keep mode-vs-mode comparisons fair and to give back-to-back
    in-process runs the cold cache a fresh process starts with."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def _cnf(formula: Formula, budget: int) -> List[Clause]:
    if isinstance(formula, FTrue):
        return []
    if isinstance(formula, FFalse):
        return [()]
    if isinstance(formula, FAtom):
        return [split_atom(formula)]
    if isinstance(formula, FAnd):
        out: List[Clause] = []
        for f in formula.operands:
            out.extend(_cnf(f, budget))
            if len(out) > budget:
                raise ClausifyBudgetError(f"more than {budget} clauses")
        return out
    if isinstance(formula, FOr):
        # Distribute: clauses(A ∨ B) = {a ∪ b : a ∈ clauses(A), b ∈ clauses(B)}
        acc: List[Clause] = [()]
        for f in formula.operands:
            sub = _cnf(f, budget)
            if not sub:  # operand is true ⇒ whole disjunction true
                return []
            nxt: List[Clause] = []
            for a in acc:
                for b in sub:
                    nxt.append(a + b)
                    if len(nxt) > budget:
                        raise ClausifyBudgetError(f"more than {budget} clauses")
            acc = nxt
        return acc
    raise TypeError(f"not an NNF formula: {formula!r}")  # pragma: no cover


def clausify_all(formulas: Sequence[Formula], *, max_clauses: int = DEFAULT_MAX_CLAUSES) -> List[Clause]:
    out: List[Clause] = []
    for f in formulas:
        out.extend(clausify(f, max_clauses=max_clauses))
        if len(out) > max_clauses:
            raise ClausifyBudgetError(f"more than {max_clauses} clauses")
    return out
