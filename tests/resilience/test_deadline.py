"""Deadline and escalation-ladder units, plus their SMT-stack hooks.

The contract under test (docs/RESILIENCE.md): a deadline can only ever
turn an answer into UNKNOWN with ``reason="timeout"`` — it never
changes a SAT/UNSAT verdict — and the structured reason taxonomy
(timeout / budget / solver-unknown) is routed from the search layer up
through ``SolverStats`` into ``AnalysisStats``.
"""

import math
import time

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.experiments.specs import small_stencil_spec
from repro.formad import FormADEngine
from repro.resilience.deadline import NEVER, Deadline, combine, per_question
from repro.resilience.escalate import (GROWTH, JITTER, MAX_SCALE,
                                       NO_ESCALATION, RETRYABLE_REASONS,
                                       EscalationPolicy)
from repro.smt import Int, Solver
from repro.smt.intsolver import Result, check_int
from repro.smt.linform import canonicalize
from repro.smt.search import Level, SearchStats, search


class TestDeadline:
    def test_fresh_deadline_is_not_expired(self):
        assert not Deadline(60.0).expired()

    def test_zero_and_negative_budgets_expire_immediately(self):
        assert Deadline(0.0).expired()
        assert Deadline(-5.0).expired()
        assert Deadline(-5.0).remaining() <= 0.0

    def test_expires_after_its_budget(self):
        d = Deadline(0.02)
        assert not d.expired()
        time.sleep(0.03)
        assert d.expired()

    def test_remaining_is_clamped_and_monotone(self):
        d = Deadline(60.0)
        first = d.remaining()
        assert 0.0 < first <= 60.0
        assert d.remaining() <= first

    def test_never_sentinel(self):
        assert not NEVER.expired()
        assert NEVER.remaining() == math.inf

    def test_tightened_never_loosens(self):
        run = Deadline(60.0)
        tight = run.tightened(1.0)
        assert tight.expires_at < run.expires_at
        # tightening past the original keeps the original
        assert run.tightened(120.0).expires_at == run.expires_at

    def test_combine_picks_the_tighter(self):
        a, b = Deadline(10.0), Deadline(1.0)
        assert combine(a, b).expires_at == b.expires_at
        assert combine(a, None) is a
        assert combine(None, b) is b
        assert combine(None, None) is None

    def test_per_question_caps_under_the_run_deadline(self):
        run = Deadline(60.0)
        q = per_question(run, 0.5)
        assert q is not None and q.expires_at < run.expires_at
        assert per_question(run, None) is run
        assert per_question(None, None) is None
        solo = per_question(None, 0.25)
        assert solo is not None and solo.remaining() <= 0.25


class TestEscalationPolicy:
    def test_default_policy_is_disabled(self):
        assert not NO_ESCALATION.enabled
        assert list(NO_ESCALATION.scales("k")) == []

    def test_retryable_taxonomy(self):
        policy = EscalationPolicy(max_attempts=3)
        assert policy.retryable("timeout")
        assert policy.retryable("budget")
        assert not policy.retryable("solver-unknown")
        assert not policy.retryable(None)
        assert RETRYABLE_REASONS == {"timeout", "budget"}

    def test_scales_grow_deterministically_and_cap(self):
        # Uncapped, attempts 5 and 6 would scale by 32 and 64.
        policy = EscalationPolicy(max_attempts=7)
        once = list(policy.scales("loop/array/q"))
        again = list(policy.scales("loop/array/q"))
        assert once == again, "jitter must be deterministic per key"
        assert len(once) == 6  # attempts beyond the first
        for n, scale in enumerate(once, start=1):
            nominal = min(GROWTH ** n, MAX_SCALE)
            assert nominal * (1 - JITTER) <= scale <= nominal * (1 + JITTER)
        assert GROWTH ** 6 > MAX_SCALE * (1 + JITTER) >= max(once), \
            "growth is capped at the maximum scale"
        uncapped = [scale for n, scale in enumerate(once, start=1)
                    if GROWTH ** n <= MAX_SCALE]
        assert uncapped == sorted(uncapped), "ladder trends upward"

    def test_different_keys_jitter_differently(self):
        policy = EscalationPolicy(max_attempts=4)
        assert list(policy.scales("a")) != list(policy.scales("b"))


def _interval(name):
    x = Int(name)
    return [x.ge(0), x.le(5)]


class TestSearchDeadline:
    def test_expired_deadline_yields_timeout_reason(self):
        base = [c for a in _interval("sd1") for c in canonicalize(a)]
        outcome = search([Level(base)], deadline=Deadline(0.0))
        assert outcome.result is Result.UNKNOWN
        assert outcome.reason == "timeout"

    def test_budget_exhaustion_is_distinct_from_timeout(self):
        base = [c for a in _interval("sd2") for c in canonicalize(a)]
        outcome = search([Level(base)], max_theory_checks=0)
        assert outcome.result is Result.UNKNOWN
        assert outcome.reason == "budget"

    def test_no_deadline_no_reason_on_sat(self):
        base = [c for a in _interval("sd3") for c in canonicalize(a)]
        outcome = search([Level(base)])
        assert outcome.result is Result.SAT
        assert outcome.reason is None

    def test_check_int_deadline(self):
        base = [c for a in _interval("sd4") for c in canonicalize(a)]
        outcome = check_int(base, deadline=Deadline(0.0))
        assert outcome.result is Result.UNKNOWN
        assert outcome.reason == "timeout"


class TestSolverDeadline:
    def test_solver_wide_deadline_times_out(self):
        solver = Solver(deadline=Deadline(0.0))
        solver.add(*_interval("sv1"))
        assert solver.check() is Result.UNKNOWN
        assert solver.last_unknown_reason == "timeout"
        assert solver.stats.unknown_timeout == 1
        assert solver.stats.unknown_budget == 0

    def test_per_check_deadline_param(self):
        solver = Solver()
        solver.add(*_interval("sv2"))
        assert solver.check(deadline=Deadline(0.0)) is Result.UNKNOWN
        assert solver.last_unknown_reason == "timeout"
        # the same solver answers honestly without the deadline
        assert solver.check() is Result.SAT
        assert solver.last_unknown_reason is None

    def test_tighter_of_solver_and_call_deadline_wins(self):
        solver = Solver(deadline=Deadline(60.0))
        solver.add(*_interval("sv3"))
        assert solver.check(deadline=Deadline(0.0)) is Result.UNKNOWN
        assert solver.last_unknown_reason == "timeout"

    def test_budget_reason_reaches_solver_stats(self):
        solver = Solver(max_theory_checks=0)
        solver.add(*_interval("sv4"))
        assert solver.check() is Result.UNKNOWN
        assert solver.last_unknown_reason == "budget"
        assert solver.stats.unknown_budget == 1
        assert solver.stats.unknown_timeout == 0

    def test_budget_scale_recovers_a_budget_unknown(self):
        solver = Solver(max_theory_checks=1)
        solver.add(*_interval("sv5"))
        first = solver.check()
        scaled = solver.check(budget_scale=64.0)
        # scale 1 may or may not exhaust; the scaled retry must decide
        assert scaled in (Result.SAT, Result.UNSAT)
        assert first in (Result.SAT, Result.UNSAT, Result.UNKNOWN)

    def test_deadline_never_flips_a_verdict(self):
        # SAT problem and UNSAT problem, with and without deadlines:
        # the decided answers agree wherever both runs decided.
        x, y = Int("sv6a"), Int("sv6b")
        for atoms, expect in [
            ([x.ge(0), x.le(5)], Result.SAT),
            ([x.eq(y + 3), x.lt(y)], Result.UNSAT),
        ]:
            plain = Solver()
            plain.add(*atoms)
            assert plain.check() is expect
            bounded = Solver(deadline=Deadline(60.0))
            bounded.add(*atoms)
            got = bounded.check()
            assert got in (expect, Result.UNKNOWN)
            if got is Result.UNKNOWN:
                assert bounded.last_unknown_reason == "timeout"


class FlakySolver(Solver):
    """Honest during buildModel and on any escalated retry; answers
    UNKNOWN("budget") to every first-attempt exploitation question.
    (Exploitation asks always pass ``budget_scale`` explicitly;
    buildModel consistency checks call ``check()`` bare.) A run with
    escalation enabled must therefore recover every baseline verdict
    on the second rung of the ladder."""

    def check(self, **kwargs):
        if "budget_scale" in kwargs and kwargs["budget_scale"] <= 1.0:
            self.stats.record(Result.UNKNOWN, 0.0, SearchStats(),
                              reason="budget")
            self._model = None
            self.last_unknown_reason = "budget"
            return Result.UNKNOWN
        return super().check(**kwargs)


class TestEngineEscalation:
    def _engine(self, spec, **kwargs):
        activity = ActivityAnalysis(spec.proc, spec.independents,
                                    spec.dependents)
        return FormADEngine(spec.proc, activity, **kwargs)

    def test_escalation_recovers_flaky_unknowns(self):
        spec = small_stencil_spec()
        baseline = self._engine(spec).analyze_all()

        escalated = self._engine(
            spec, solver_factory=lambda **kw: FlakySolver(**kw),
            escalation=EscalationPolicy(max_attempts=2),
        ).analyze_all()

        assert len(escalated) == len(baseline)
        for flaky, honest in zip(escalated, baseline):
            assert {n: v.safe for n, v in flaky.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            assert not flaky.degraded
            assert flaky.stats.escalations > 0
            assert flaky.stats.unknown_budget > 0

    def test_without_escalation_flaky_unknowns_stick(self):
        spec = small_stencil_spec()
        baseline = self._engine(spec).analyze_all()
        plain = self._engine(
            spec, solver_factory=lambda **kw: FlakySolver(**kw),
        ).analyze_all()
        for flaky, honest in zip(plain, baseline):
            # arrays whose safety rests on solver answers lose it;
            # nothing gains it (soundness bias)
            assert flaky.safe_arrays() < honest.safe_arrays()
            assert flaky.stats.escalations == 0
            assert flaky.stats.unknown_budget > 0
