"""Tests for clausification, Ackermann elimination, and the Solver facade."""

import random

import pytest

from repro.smt import (Ackermannizer, And, FAtom, Int, Not, Or, Rel, SAT,
                       UNKNOWN, UNSAT, Solver, TAdd, TApp, TConst,
                       ackermannize, clausify, prove_distinct, to_nnf)

i, ip, j, jp = Int("i"), Int("ip"), Int("j"), Int("jp")


class TestClausify:
    def test_atom_passthrough(self):
        clauses = clausify(i.le(j))
        assert clauses == [(i.le(j),)]

    def test_ne_splits(self):
        clauses = clausify(i.ne(j))
        assert len(clauses) == 1
        (clause,) = clauses
        assert {a.rel for a in clause} == {Rel.LT, Rel.GT}

    def test_negation_folds_into_relation(self):
        clauses = clausify(Not(i.le(j)))
        assert clauses == [(i.gt(j),)]

    def test_negated_eq_becomes_split_ne(self):
        clauses = clausify(Not(i.eq(j)))
        (clause,) = clauses
        assert len(clause) == 2

    def test_and_gives_multiple_clauses(self):
        clauses = clausify(And(i.le(j), j.le(i)))
        assert len(clauses) == 2

    def test_or_gives_one_clause(self):
        clauses = clausify(Or(i.lt(j), i.gt(j)))
        assert len(clauses) == 1 and len(clauses[0]) == 2

    def test_or_of_ands_distributes(self):
        f = Or(And(i.le(0), j.le(0)), And(i.ge(5), j.ge(5)))
        clauses = clausify(f)
        assert len(clauses) == 4

    def test_demorgan(self):
        f = Not(And(i.le(j), j.le(i)))
        nnf = to_nnf(f)
        clauses = clausify(f)
        assert len(clauses) == 1 and len(clauses[0]) == 2


class TestAckermann:
    def test_single_app_becomes_variable(self):
        c_i = TApp("c", (i,))
        res = ackermannize([c_i.le(5)])
        assert not res.congruence
        assert len(res.formulas) == 1

    def test_congruence_axiom_generated(self):
        c_i = TApp("c", (i,))
        c_ip = TApp("c", (ip,))
        res = ackermannize([c_i.ne(c_ip)])
        assert len(res.congruence) == 1

    def test_identical_apps_share_a_variable(self):
        c_i = TApp("c", (i,))
        res = ackermannize([c_i.le(5), c_i.ge(5)])
        assert not res.congruence  # one distinct application only
        names = set(res.app_names.values())
        assert len(names) == 1

    def test_nested_apps(self):
        inner = TApp("c", (i,))
        outer = TApp("m", (inner, j))
        res = ackermannize([outer.le(0)])
        assert len(res.app_names) == 2

    def test_different_arity_kept_separate(self):
        res = ackermannize([TApp("f", (i,)).le(0), TApp("f", (i, j)).le(0)])
        assert not res.congruence

    def test_kept_rewrite_dropped_once_any_named_app_is_forgotten(self):
        """A kept rewrite is reused only while every application it
        named is live under the same variable. Here ``g(y)`` comes back
        at its old position but ``f(x)`` does not, so reusing the first
        rewrite would name a dead application ``!f@0``."""
        x, y, z = Int("x"), Int("y"), Int("z")
        f, g, h = TApp("f", (x,)), TApp("g", (y,)), TApp("h", (z,))
        formula = (f + g).eq(0)
        ack = Ackermannizer()
        assert str(ack.rewrite_formula(formula)) == "((!f@0 + !g@1) = 0)"
        ack.forget_apps(ack.introduced)  # the owning level is popped
        ack.rewrite_term(h)
        ack.rewrite_term(g)
        fresh = Ackermannizer()
        fresh.rewrite_term(h)
        fresh.rewrite_term(g)
        want = fresh.rewrite_formula(formula)
        assert str(want) == "((!f@2 + !g@1) = 0)"
        assert ack.rewrite_formula(formula) is want
        assert ack.app_names == fresh.app_names


class _RecordingAckermannizer(Ackermannizer):
    """Logs every assertion rewrite the solver asks for (not the
    recursive calls on an assertion's operands)."""

    def __init__(self):
        super().__init__()
        self.log = []
        self._depth = 0

    def rewrite_formula(self, formula):
        self._depth += 1
        try:
            rewritten = super().rewrite_formula(formula)
        finally:
            self._depth -= 1
        if not self._depth:
            self.log.append((formula, rewritten))
        return rewritten


def _uf_pool(rng):
    """Recurring terms: single applications (some nested) and sums of
    two, so one rewrite often names several applications that later
    come back at other positions, or in another order, and an inner
    variable name ``!f@k`` can come to stand for another application."""
    x, y, z = Int("x"), Int("y"), Int("z")
    f_x, f_y = TApp("f", (x,)), TApp("f", (y,))
    apps = [f_x, f_y, TApp("g", (y,)), TApp("h", (z,)),
            TApp("g", (f_x,)), TApp("g", (f_y,)),
            TApp("k", (x, TAdd((y, TConst(1)))))]
    sums = [TAdd(tuple(rng.sample(apps, 2))) for _ in range(6)]
    return apps + sums + [x, y]


@pytest.mark.parametrize("seed", range(10))
def test_every_rewrite_matches_a_fresh_replay_of_the_live_prefix(seed):
    """Random push/add/check/pop traffic over a small pool of recurring
    UF terms: every rewrite the solver's Ackermannizer returns, kept or
    not, is the one a fresh Ackermannizer gives after replaying the
    live assertions up to it, and the live names agree after each
    check."""
    rng = random.Random(f"ackermann-{seed}")
    pool = _uf_pool(rng)
    # Tiny search budgets: the verdicts do not matter here, and every
    # pending assertion is rewritten before the search starts.
    solver = Solver(max_theory_checks=20, node_budget=20)
    solver._ack = ack = _RecordingAckermannizer()
    stack = [[]]  # mirror of the solver's assertion levels
    rewrites = 0
    for _ in range(200):
        op = rng.random()
        if len(stack) == 1:
            # Few base-level assertions: they are never popped, so
            # they would pin the low positions for the whole run.
            op = 0.0 if op < 0.1 else 1.0
        if op < 0.4:
            rel = rng.choice([Rel.EQ, Rel.NE, Rel.LE])
            formula = FAtom(rel, rng.choice(pool), TConst(rng.randint(0, 3)))
            if rng.random() < 0.3:
                formula = Or(formula, FAtom(Rel.NE, rng.choice(pool),
                                            rng.choice(pool)))
            solver.add(formula)
            stack[-1].append(formula)
        elif op < 0.7:
            solver.pop()
            stack.pop()
        else:
            solver.push()
            stack.append([])
        if rng.random() < 0.6:
            ack.log.clear()
            solver.check()
            live = [f for level in stack for f in level]
            start = len(live) - len(ack.log)
            for k, (formula, rewritten) in enumerate(ack.log):
                assert formula is live[start + k]
                fresh = Ackermannizer()
                for earlier in live[:start + k]:
                    fresh.rewrite_formula(earlier)
                assert rewritten is fresh.rewrite_formula(formula)
                rewrites += 1
            fresh = Ackermannizer()
            for formula in live:
                fresh.rewrite_formula(formula)
            assert ack.app_names == fresh.app_names
    assert rewrites >= 20


class TestSolverFacade:
    def test_empty_solver_sat(self):
        assert Solver().check() is SAT

    def test_basic_sat_unsat(self):
        s = Solver()
        s.add(i.ge(0), i.le(10))
        assert s.check() is SAT
        s.add(i.ge(11))
        assert s.check() is UNSAT

    def test_push_pop_restores(self):
        s = Solver()
        s.add(i.ge(0))
        s.push()
        s.add(i.le(-1))
        assert s.check() is UNSAT
        s.pop()
        assert s.check() is SAT

    def test_pop_too_far_raises(self):
        with pytest.raises(RuntimeError):
            Solver().pop()

    def test_model_available_after_sat(self):
        s = Solver()
        s.add(i.eq(4), j.eq(i + 1))
        assert s.check() is SAT
        m = s.model()
        assert m["i"] == 4 and m["j"] == 5

    def test_model_without_check_raises(self):
        with pytest.raises(RuntimeError):
            Solver().model()

    def test_model_invalidated_by_add(self):
        s = Solver()
        s.add(i.eq(1))
        s.check()
        s.add(i.ge(0))
        with pytest.raises(RuntimeError):
            s.model()

    def test_stats_accumulate(self):
        s = Solver()
        s.add(i.ge(0))
        s.check()
        s.check()
        assert s.stats.checks == 2 and s.stats.sat == 2

    def test_disjunction_handling(self):
        s = Solver()
        s.add(Or(i.eq(0), i.eq(5)), i.ge(3))
        assert s.check() is SAT
        assert s.model()["i"] == 5

    def test_all_branches_refuted(self):
        s = Solver()
        s.add(Or(i.eq(0), i.eq(5)), i.ge(6))
        assert s.check() is UNSAT


class TestFig2Scenario:
    """The paper's Figure 2 reasoning, end to end at the solver level."""

    def _knowledge(self, s: Solver):
        c_i = TApp("c", (i,))
        c_ip = TApp("c", (ip,))
        s.add(ip.ne(i))       # distinct loop iterations
        s.add(c_ip.ne(c_i))   # primal writes y(c(i)) are disjoint
        return c_i, c_ip

    def test_knowledge_is_consistent(self):
        s = Solver()
        self._knowledge(s)
        assert s.check() is SAT

    def test_xb_increment_proven_safe(self):
        # Question: can xb(c(i)+7) and xb(c(i')+7) collide? Expect UNSAT.
        s = Solver()
        c_i, c_ip = self._knowledge(s)
        s.push()
        s.add((c_ip + 7).eq(c_i + 7))
        assert s.check() is UNSAT
        s.pop()
        assert s.check() is SAT

    def test_unrelated_access_not_proven_safe(self):
        # A different indirection d(i) has no disjointness knowledge:
        # d(i') == d(i) is satisfiable (congruence permits equal values).
        s = Solver()
        self._knowledge(s)
        d_i = TApp("d", (i,))
        d_ip = TApp("d", (ip,))
        s.push()
        s.add(d_ip.eq(d_i))
        assert s.check() is SAT

    def test_prove_distinct_helper(self):
        s = Solver()
        c_i, c_ip = self._knowledge(s)
        assert prove_distinct(s, c_ip + 7, c_i + 7)
        d_i, d_ip = TApp("d", (i,)), TApp("d", (ip,))
        assert not prove_distinct(s, d_ip, d_i)
        # push/pop inside the helper must leave the solver usable
        assert s.check() is SAT


class TestStencilScenario:
    """Small-stencil reasoning: write set {i, i-1} under i != i'."""

    def test_adjoint_reads_same_offsets_safe(self):
        s = Solver()
        s.add(ip.ne(i))
        # Knowledge from primal: writes at i and i-1 are all disjoint
        # across iterations (the loop steps by 2).
        # i' != i (given), and the stride-2 structure: model i = 2k.
        k, kp = Int("k"), Int("kp")
        s.add(i.eq(2 * k), ip.eq(2 * kp), kp.ne(k))
        s.push()
        s.add(ip.eq(i - 1))  # can unew(i'-... ) alias unew(i-1)? i' = i-1 odd vs even
        assert s.check() is UNSAT
        s.pop()
        s.push()
        s.add((ip - 1).eq(i - 1))  # same offset, different iterations
        assert s.check() is UNSAT


class TestWarmModelInvalidation:
    """pop() must not keep warm-start hints minted at deeper levels
    (regression: a stale hint survived pop() and was fed to every
    later search)."""

    def test_pop_below_warm_level_drops_hint(self):
        s = Solver()
        s.add(i.ge(0))
        s.push()
        s.add(j.ge(5))
        assert s.check() is SAT
        assert s._warm_model is not None
        s.pop()
        assert s._warm_model is None
        assert s._warm_level == 0

    def test_pop_above_warm_level_keeps_hint(self):
        s = Solver()
        s.add(i.ge(0))
        assert s.check() is SAT  # minted at depth 1
        warm = s._warm_model
        assert warm is not None
        s.push()
        s.push()
        s.pop()  # still strictly above the minting depth: valid
        assert s._warm_model == warm
        assert s.check() is SAT

    def test_pop_to_warm_level_drops_hint(self):
        """Regression: a pop that unwinds *to* the minting depth must
        invalidate the hint — a later push can repopulate that depth
        with different assertions, so keeping the hint would seed a
        check with a model derived from popped state (the old
        ``_warm_level > len`` comparison kept it)."""
        s = Solver()
        s.add(i.ge(0))
        assert s.check() is SAT  # minted at depth 1
        s.push()
        s.pop()  # unwinds to depth 1 == the minting depth
        assert s._warm_model is None
        assert s._warm_level == 0
        # pop/push/check at the same depth must still answer correctly
        s.push()
        s.add(i.lt(0))
        assert s.check() is UNSAT
        s.pop()
        assert s.check() is SAT

    def test_checks_after_pop_stay_correct(self):
        s = Solver()
        s.add(i.ge(0), i.le(10))
        s.push()
        s.add(i.eq(5))
        assert s.check() is SAT
        s.pop()
        s.push()
        s.add(i.gt(10))
        assert s.check() is UNSAT
        s.pop()
        assert s.check() is SAT

    def test_non_incremental_solver_matches(self):
        for incremental in (True, False):
            s = Solver(incremental=incremental)
            s.add(i.ge(0))
            s.push()
            s.add(i.lt(0))
            assert s.check() is UNSAT
            s.pop()
            assert s.check() is SAT
