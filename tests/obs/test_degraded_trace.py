"""The trace and result of a degraded loop, in process.

A loop degrades when its analysis cannot run: buildModel's knowledge
came back UNKNOWN or the solver failed (phase ``build_model``), its
``--jobs`` worker died (``worker``), or the run deadline expired before
its shard was dispatched (``deadline``). The loop then keeps every
safeguard, but it still counts and traces every question the honest
analysis would have asked, so Table-1 totals and the provenance trail
do not depend on where a fault struck.

Both kernels here are all-safe, so the honest analysis never stops an
array early on a SAT answer and asks every planned question: the
degraded run must trace exactly the same questions, each answered
UNKNOWN without the solver.
"""

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.audit.chaos import ChaosConfig, chaos_factory
from repro.formad import FormADEngine
from repro.obs.events import validate_events
from repro.obs.tracer import CollectingTracer
from repro.programs import build_gfmc, build_stencil

KERNELS = {
    "gfmc": (build_gfmc, ["cl", "cr"], ["cl", "cr"]),
    "stencil8": (lambda: build_stencil(8), ["uold"], ["unew"]),
}

#: The fields a question event carries when nothing but the question
#: itself is known (no witness, reason, failure, retries or replay).
QUESTION_FIELDS = {"v", "type", "t", "thread", "span", "seq", "loop",
                   "array", "context", "write", "other", "question",
                   "instances", "result", "memo_hit", "dur_s"}

#: What identifies a question independently of how it was answered.
QUESTION_KEY = ("loop", "array", "context", "write", "other", "question",
                "instances")

REASON = "shard worker exited with status 3"


def _run(kernel, proc, mode):
    _, independents, dependents = KERNELS[kernel]
    activity = ActivityAnalysis(proc, independents, dependents)
    tracer = CollectingTracer()
    kwargs = {}
    if mode == "build_model":
        # The first check of every loop's solver is buildModel's first
        # consistency check: answer it UNKNOWN.
        kwargs["solver_factory"] = chaos_factory(
            ChaosConfig(fail_checks=frozenset({0}), fail_kind="unknown"))
    engine = FormADEngine(proc, activity, tracer=tracer, **kwargs)
    if mode == "worker":
        analyses = [engine.degraded_analysis(loop, REASON, phase="worker")
                    for loop in proc.parallel_loops()]
    else:
        analyses = engine.analyze_all()
    tracer.close()
    assert validate_events(tracer.events) == []
    return analyses, tracer.events


def _of_type(events, etype):
    return [e for e in events if e["type"] == etype]


@pytest.fixture(scope="module", params=sorted(KERNELS))
def honest(request):
    # One procedure for every run: context paths name statement uids.
    proc = KERNELS[request.param][0]()
    analyses, events = _run(request.param, proc, "honest")
    assert all(a.all_safe and not a.degraded for a in analyses)
    return request.param, proc, analyses, events


@pytest.mark.parametrize("mode", ["worker", "build_model"])
def test_degraded_trace_matches_the_honest_question_plan(honest, mode):
    kernel, proc, honest_analyses, honest_events = honest
    analyses, events = _run(kernel, proc, mode)
    loops = [a.loop.var for a in honest_analyses]

    degraded = _of_type(events, "degraded")
    assert [e["loop"] for e in degraded] == loops
    assert {e["phase"] for e in degraded} == {mode}
    if mode == "worker":
        assert all(e["reason"] == REASON for e in degraded)
        assert _of_type(events, "fact") == []
    else:
        assert len(_of_type(events, "fact")) \
            == len(_of_type(honest_events, "fact"))

    questions = _of_type(events, "question")
    honest_questions = _of_type(honest_events, "question")
    assert [tuple(q[k] for k in QUESTION_KEY) for q in questions] \
        == [tuple(q[k] for k in QUESTION_KEY) for q in honest_questions]
    for q in questions:
        assert set(q) == QUESTION_FIELDS, q
        assert q["result"] == "UNKNOWN"
        assert q["memo_hit"] is False
        assert q["dur_s"] == 0.0

    verdicts = _of_type(events, "verdict")
    honest_verdicts = _of_type(honest_events, "verdict")
    assert [(v["loop"], v["array"], v["pairs_total"]) for v in verdicts] \
        == [(v["loop"], v["array"], v["pairs_total"])
            for v in honest_verdicts]
    by_loop = {e["loop"]: e["reason"] for e in degraded}
    for v in verdicts:
        assert v["safe"] is False
        assert v["pairs_proven"] == 0
        if v["reason"] != "rank mismatch":
            expected = by_loop[v["loop"]]
            if mode == "build_model":
                expected = f"knowledge degraded: {expected}"
            assert v["reason"] == expected


@pytest.mark.parametrize("mode", ["worker", "build_model"])
def test_degraded_analysis_keeps_the_honest_counts(honest, mode):
    kernel, proc, honest_analyses, _ = honest
    analyses, _ = _run(kernel, proc, mode)
    assert len(analyses) == len(honest_analyses)
    for got, want in zip(analyses, honest_analyses):
        assert got.degraded is True
        assert got.cacheable is False
        assert not any(v.safe for v in got.verdicts.values())
        assert sorted(got.verdicts) == sorted(want.verdicts)
        for name in ("exploitation_checks", "model_size", "unique_exprs",
                     "skipped_pairs"):
            assert getattr(got.stats, name) == getattr(want.stats, name), \
                name
        assert got.stats.memo_hits == 0
        assert got.safe_write_expressions == want.safe_write_expressions
        assert got.offending_expressions == []
