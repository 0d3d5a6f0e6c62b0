"""Property test: the per-level prepared clause store and the indexed
literal filter against a scan that strips and filters every clause.

``search()`` strips each level's clauses once (dropping trivially true
clauses and trivially false literals, promoting units, noting clauses
left with no literal) and asks a per-level index which literals the
presolve substitution chain can change. The reference below is the
scan that does all of that on every search: it strips every clause and
runs every surviving literal through :func:`literal_status`. It shares
nothing with the prepared store or the index; both sides call the same
:func:`presolve` and :func:`literal_status`.

Random levels mix LE and EQ literals, trivially true and false
literals, unit clauses, clauses left with no literal after units,
clauses that turn unit while the filter runs (so presolve reruns and
the rest is filtered under a longer chain), one-step chains and chains
of two or more steps, including Omega steps. The levels grow between
searches, so the store is extended from its watermark. Every search
must give the reference's result, model, ``SearchStats`` and UNKNOWN
reason, with the same number of ``presolve`` calls.
"""

import importlib
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.smt import (FAtom, Rel, Result, TrivialConstraint, canonicalize,
                       check_int)
from repro.smt.presolve import (ENTAILED, INFEASIBLE, KEPT, PresolveInfeasible,
                                literal_status, presolve)
from repro.smt.search import (Level, SearchOutcome, SearchStats, _Budget,
                              _model_satisfies, _search_node, _spread_model,
                              search)
from repro.smt.terms import TAdd, TConst, TMul, TVar

search_module = importlib.import_module("repro.smt.search")

THEORY_CHECKS, NODES = 200, 50


def _constraints(atom):
    try:
        return canonicalize(atom)
    except TrivialConstraint as t:
        return () if t.truth else None


def _reference_search(levels, presolve_fn):
    """Every clause stripped and every literal filtered on this search."""
    stats = SearchStats()
    budget = _Budget(THEORY_CHECKS)
    spread = _spread_model(levels)
    if _model_satisfies(spread, levels):
        return SearchOutcome(Result.SAT, spread, stats)
    base_list = [c for level in levels for c in level.base]
    stripped = []
    for level in levels:
        for clause in level.clauses:
            literals = []
            trivially_true = False
            for atom in clause:
                cons = _constraints(atom)
                if cons is None:
                    continue
                if cons == ():
                    trivially_true = True
                    break
                literals.append((atom, cons))
            if trivially_true:
                continue
            if not literals:
                return SearchOutcome(Result.UNSAT, stats=stats)
            if len(literals) == 1:
                stats.propagations += 1
                base_list.extend(literals[0][1])
            else:
                stripped.append(literals)
    try:
        pres = presolve_fn(base_list)
    except PresolveInfeasible:
        return SearchOutcome(Result.UNSAT, stats=stats)
    pending = []
    for literals in stripped:
        kept = []
        entailed = False
        for atom, cons in literals:
            status = KEPT
            for c in cons:
                status = literal_status(c, pres.substitutions)
                if status is not KEPT:
                    break
            if status is INFEASIBLE:
                continue
            if status is ENTAILED and len(cons) == 1:
                entailed = True
                break
            kept.append(atom)
        if entailed:
            continue
        if not kept:
            return SearchOutcome(Result.UNSAT, stats=stats)
        if len(kept) == 1:
            stats.propagations += 1
            base_list.extend(_constraints(kept[0]))
            try:
                pres = presolve_fn(base_list)
            except PresolveInfeasible:
                return SearchOutcome(Result.UNSAT, stats=stats)
        else:
            pending.append(tuple(kept))
    if len(pending) <= 60:
        for _round in range(10):
            changed = False
            survivors = []
            for clause in pending:
                kept = []
                for atom in clause:
                    cons = _constraints(atom)
                    if not budget.spend():
                        return SearchOutcome(Result.UNKNOWN, stats=stats,
                                             reason=budget.reason)
                    stats.theory_checks += 1
                    outcome = check_int(base_list + list(cons),
                                        node_budget=NODES)
                    if outcome.result is not Result.UNSAT:
                        kept.append(atom)
                if not kept:
                    return SearchOutcome(Result.UNSAT, stats=stats)
                if len(kept) == 1:
                    stats.propagations += 1
                    base_list.extend(_constraints(kept[0]))
                    changed = True
                else:
                    survivors.append(tuple(kept))
            pending = survivors
            if not changed:
                break
    result, model = _search_node(base_list, pending, stats, budget, NODES)
    return SearchOutcome(result, model, stats,
                         reason=(budget.reason or "solver-unknown")
                         if result is Result.UNKNOWN else None)


class _Counted:
    def __init__(self):
        self.calls = 0

    def __call__(self, constraints):
        self.calls += 1
        return presolve(constraints)


def assert_search_matches_reference(levels):
    """One search over *levels* against the reference on copies of the
    same lists (fresh levels, so the reference sees no prepared state).
    Returns the outcome and the number of presolve calls."""
    counted = _Counted()
    with mock.patch.object(search_module, "presolve", counted):
        got = search(levels, max_theory_checks=THEORY_CHECKS,
                     node_budget=NODES)
    ref_counted = _Counted()
    want = _reference_search(
        [Level(list(level.base), list(level.clauses)) for level in levels],
        ref_counted)
    assert got.result is want.result
    assert got.model == want.model
    assert got.stats == want.stats
    assert got.reason == want.reason
    assert counted.calls == ref_counted.calls
    return got, counted.calls


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

VARS = ("x", "y", "z", "w")
X, Y, Z, W = (TVar(v) for v in VARS)
FALSE_ATOM = FAtom(Rel.LE, TConst(1), TConst(0))
TRUE_ATOM = FAtom(Rel.LE, TConst(0), TConst(1))


@st.composite
def linear_atoms(draw, rels=(Rel.LE, Rel.LT, Rel.GE, Rel.GT, Rel.EQ)):
    """``Σ c·v + k REL m`` over up to three variables; zero coefficients
    or no variables give trivially true or false atoms."""
    names = draw(st.lists(st.sampled_from(VARS), max_size=3, unique=True))
    parts = [TMul(draw(st.integers(-3, 3)), TVar(n)) for n in names]
    parts.append(TConst(draw(st.integers(-4, 4))))
    return FAtom(draw(st.sampled_from(rels)), TAdd(tuple(parts)),
                 TConst(draw(st.integers(-4, 4))))


def _pair(draw):
    v, u = draw(st.lists(st.sampled_from(VARS), min_size=2, max_size=2,
                         unique=True))
    return TVar(v), TVar(u)


@st.composite
def base_equalities(draw):
    """Equalities that presolve eliminates: ``v = k`` and ``v - u = k``
    (one unit step each), ``v - 2u = k`` (a step that leaves even
    coefficients behind) or ``2v + 3u = k`` (Omega steps)."""
    v, u = _pair(draw)
    k = draw(st.integers(-4, 4))
    shape = draw(st.sampled_from(("const", "diff", "even", "omega")))
    if shape == "const":
        return v.eq(k)
    if shape == "diff":
        return (v - u).eq(k)
    if shape == "even":
        return (v - 2 * u).eq(k)
    return (2 * v + 3 * u).eq(k)


@st.composite
def related_atoms(draw):
    """Atoms shaped like the base equalities' forms, which their chains
    often decide: ``a·v REL k``, ``v - u REL k`` and ``v + 2u REL k``
    (an EQ of that shape can fail the GCD test after ``v := 2w``)."""
    v, u = _pair(draw)
    shape = draw(st.sampled_from(("one", "diff", "even")))
    if shape == "one":
        left = draw(st.sampled_from((1, -1, 2))) * v
    elif shape == "diff":
        left = v - u
    else:
        left = v + 2 * u
    rel = draw(st.sampled_from((Rel.LE, Rel.LT, Rel.GE, Rel.GT, Rel.EQ)))
    return FAtom(rel, left, TConst(draw(st.integers(-4, 4))))


clause_atoms = st.one_of(
    related_atoms(), linear_atoms(), related_atoms(),
    st.sampled_from((FALSE_ATOM, TRUE_ATOM)))


@st.composite
def clauses(draw):
    shape = draw(st.integers(0, 39))
    if shape == 0:
        return (FALSE_ATOM, FALSE_ATOM)  # no literal left once stripped
    if shape <= 6:
        # a unit clause hidden behind a trivially false literal
        return (FALSE_ATOM, draw(related_atoms()))
    return tuple(draw(st.lists(clause_atoms, min_size=1, max_size=3)))


@st.composite
def growths(draw):
    """One growth step: which level, base constraints, clauses (with
    repeats of one clause object) to append."""
    level = draw(st.integers(0, 2))
    base = []
    atoms = draw(st.lists(base_equalities(), max_size=2))
    atoms += draw(st.lists(clause_atoms, max_size=1))
    for atom in atoms:
        cons = _constraints(atom)
        if cons:
            base.extend(cons)
    new = draw(st.lists(clauses(), max_size=6))
    if new and draw(st.booleans()):
        new.append(new[0])  # the same clause tuple twice
    return level, base, new


class TestPreparedFilterProperty:
    @given(st.integers(1, 3), st.lists(growths(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_search_matches_full_scan(self, nlevels, steps):
        levels = [Level() for _ in range(nlevels)]
        for index, base, new in steps:
            level = levels[index % nlevels]
            level.base.extend(base)
            level.clauses.extend(new)
            assert_search_matches_reference(levels)


def _le(atom):
    (c,) = canonicalize(atom)
    return c


class TestPreparedFilterCases:
    """The listed shapes, each on its own."""

    def test_unit_midway_lengthens_the_chain(self):
        # x := 5 refutes x <= 3, so the first clause turns unit and adds
        # y = z + 1; the third clause then reduces under a 2-step chain.
        level = Level([_le(X.eq(5))], [
            (X.le(3), (Y - Z).eq(1)),
            (X.ge(0), Y.le(100)),
            ((Y - Z).le(0), W.eq(2)),
        ])
        got, presolves = assert_search_matches_reference([level])
        assert (got.stats.propagations, presolves) == (2, 3)

    def test_refuting_clause_after_units(self):
        level = Level([_le(X.eq(1))], [
            (FALSE_ATOM, Y.le(2)),
            (Z.le(1), FALSE_ATOM),
            (FALSE_ATOM, FALSE_ATOM),
            (FALSE_ATOM, W.le(3)),
        ])
        got, presolves = assert_search_matches_reference([level])
        assert got.result is Result.UNSAT
        assert (got.stats.propagations, presolves) == (2, 0)

    def test_refuting_clause_in_a_later_level(self):
        first = Level([_le(X.eq(1))], [(FALSE_ATOM, Y.le(2))])
        second = Level([], [(Z.le(1), FALSE_ATOM), (FALSE_ATOM,)])
        got, presolves = assert_search_matches_reference([first, second])
        assert (got.stats.propagations, presolves) == (2, 0)

    def test_omega_chain(self):
        # 2x + 3y = 7 has no unit coefficient: presolve takes an Omega
        # step, so the first clause is filtered under a 2-step chain.
        level = Level([_le((2 * X + 3 * Y).eq(7))], [
            (X.le(-100), (X + Y).eq(50)),
            ((2 * X).eq(1), Z.le(0)),
        ])
        got, _ = assert_search_matches_reference([level])
        assert (got.result, got.stats.branches) == (Result.SAT, 1)

    def test_eq_literal_refuted_by_gcd(self):
        # x := 2y turns x + 2z = 3 into 2y + 2z = 3, which keeps its
        # variables but fails the GCD test, so the clause turns unit.
        level = Level([_le((X - 2 * Y).eq(0))], [
            ((X + 2 * Z).eq(3), W.le(-1)),
            (W.ge(0), Z.ge(1)),
        ])
        got, presolves = assert_search_matches_reference([level])
        assert (got.stats.propagations, presolves) == (2, 2)

    def test_repeated_clause_object_reaches_the_branching(self):
        # x + y = 0 admits x = y = 0, which violates x != y, so the
        # search branches on one of the two copies of the clause.
        clause = ((X - Y).le(-1), (Y - X).le(-1))
        level = Level([_le((X + Y).eq(0))], [clause, clause])
        got, _ = assert_search_matches_reference([level])
        assert (got.result, got.stats.branches) == (Result.SAT, 1)

    def test_store_extends_from_its_watermark(self):
        level = Level([_le(X.eq(2))], [(X.le(1), Y.le(0))])
        assert_search_matches_reference([level])
        level.clauses.append((Y.ge(1), Z.le(0)))
        level.clauses.append((X.ge(3), X.le(0)))  # both false under x := 2
        got, _ = assert_search_matches_reference([level])
        assert got.result is Result.UNSAT
