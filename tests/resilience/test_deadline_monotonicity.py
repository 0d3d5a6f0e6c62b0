"""Resilience soundness property over the four paper kernels.

The guarantee (ISSUE acceptance, docs/RESILIENCE.md): no deadline,
per-question timeout, or escalation configuration may ever *change* a
verdict — it may only turn SAT/UNSAT answers into UNKNOWN, which
degrades arrays toward safeguards. And because degraded loops still
enumerate the questions they would have asked, the Table-1 question
counts are identical under every configuration (the paper kernels are
all-safe, so the honest runs never break early and the counts line up
exactly).
"""

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.experiments.specs import ALL_FIGURE_SPECS
from repro.formad import FormADEngine
from repro.resilience.deadline import Deadline
from repro.resilience.escalate import EscalationPolicy

#: name -> engine kwargs factory (deadlines must be minted per run,
#: not at collection time, so these are thunks)
CONFIGS = {
    "expired_deadline": lambda: {"deadline": Deadline(0.0)},
    "zero_question_timeout": lambda: {"question_timeout": 0.0},
    "tiny_deadline": lambda: {"deadline": Deadline(0.005)},
    "timeout_with_escalation": lambda: {
        "question_timeout": 0.0,
        "escalation": EscalationPolicy(max_attempts=3),
    },
}


def _analyze(spec, **kwargs):
    activity = ActivityAnalysis(spec.proc, spec.independents,
                                spec.dependents)
    engine = FormADEngine(spec.proc, activity, **kwargs)
    return engine.analyze_all()


@pytest.mark.parametrize("kernel", sorted(ALL_FIGURE_SPECS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_resource_bounds_only_degrade(kernel, config):
    spec = ALL_FIGURE_SPECS[kernel]()
    baseline = _analyze(spec)
    bounded = _analyze(spec, **CONFIGS[config]())  # must never raise

    assert len(bounded) == len(baseline)
    for tight, honest in zip(bounded, baseline):
        assert tight.loop.uid == honest.loop.uid
        # monotone: a bounded run may lose safety proofs, never gain
        assert tight.safe_arrays() <= honest.safe_arrays()
        for name, verdict in tight.verdicts.items():
            if verdict.safe:
                assert honest.verdicts[name].safe, \
                    f"{kernel}/{config}: {name} upgraded under bounds"
        # fault-independent accounting: the same questions are counted
        # whether they were solved, timed out, or skipped by degradation
        assert tight.stats.exploitation_checks \
            == honest.stats.exploitation_checks, (kernel, config)
        assert tight.stats.consistency_checks \
            <= honest.stats.consistency_checks, (kernel, config)


@pytest.mark.parametrize("kernel", sorted(ALL_FIGURE_SPECS))
def test_paper_kernels_are_all_safe_at_baseline(kernel):
    # the premise of exact count equality above: no SAT early-breaks
    spec = ALL_FIGURE_SPECS[kernel]()
    for analysis in _analyze(spec):
        unsafe = {n for n, v in analysis.verdicts.items() if not v.safe}
        assert unsafe == set(), f"{kernel}: unexpectedly unsafe {unsafe}"


@pytest.mark.parametrize("kernel", sorted(ALL_FIGURE_SPECS))
def test_expired_deadline_reports_timeouts_not_verdict_flips(kernel):
    spec = ALL_FIGURE_SPECS[kernel]()
    bounded = _analyze(spec, deadline=Deadline(0.0))
    for analysis in bounded:
        assert analysis.safe_arrays() == set()
        total_unknown = (analysis.stats.unknown_timeout
                         + analysis.stats.unknown_budget
                         + analysis.stats.unknown_solver
                         + analysis.stats.timed_out_questions)
        assert analysis.degraded or total_unknown > 0
