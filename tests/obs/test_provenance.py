"""Provenance correctness on the paper kernels (Table 1, §7).

Two properties gate the observability layer:

* **one provenance event per exploitation question** — the trace is a
  complete record: ``question`` events match ``exploitation_checks``
  exactly, memo-hit flags match ``memo_hits``, and every analyzed
  array gets exactly one ``verdict`` event;
* **zero-overhead identity** — running with the no-op tracer (the
  default) leaves verdicts, exploitation-query counts, and memo-hit
  counts byte-identical to the instrumented run, on all four paper
  kernels.
"""

import pytest

from repro import analyze_formad
from repro.obs.events import validate_events
from repro.obs.tracer import CollectingTracer
from repro.programs import (build_gfmc, build_greengauss, build_lbm,
                            build_stencil)

#: kernel -> (builder, independents, dependents, expected verdicts,
#: expected exploitation_checks, expected memo_hits). The counts are
#: the pre-observability baselines; the no-op identity requirement
#: pins them.
KERNELS = {
    "stencil1": (lambda: build_stencil(1), ["uold"], ["unew"],
                 {"unew": True, "uold": True}, 3, 0),
    "gfmc": (build_gfmc, ["cl", "cr"], ["cl", "cr"],
             {"cl": True, "cr": True}, 21, 9),
    "greengauss": (build_greengauss, ["dv"], ["grad"],
                   {"dv": True, "grad": True}, 3, 0),
    "lbm": (build_lbm, ["srcgrid"], ["dstgrid"],
            {"dstgrid": True, "srcgrid": False}, 192, 1),
}


def summarize(analyses):
    verdicts = {}
    exploitation = memo = 0
    for a in analyses:
        for name, v in a.verdicts.items():
            verdicts[name] = v.safe
        exploitation += a.stats.exploitation_checks
        memo += a.stats.memo_hits
    return verdicts, exploitation, memo


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_traced_run_matches_untraced_baseline(kernel):
    builder, ind, dep, verdicts, exploitation, memo = KERNELS[kernel]

    plain = summarize(analyze_formad(builder(), ind, dep))
    assert plain == (verdicts, exploitation, memo)

    tracer = CollectingTracer()
    traced = summarize(analyze_formad(builder(), ind, dep, tracer=tracer))
    tracer.close()
    assert traced == plain
    assert validate_events(tracer.events) == []


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_question_event_per_exploitation_check(kernel):
    builder, ind, dep, _, exploitation, memo = KERNELS[kernel]
    tracer = CollectingTracer()
    analyses = analyze_formad(builder(), ind, dep, tracer=tracer)
    tracer.close()

    questions = [e for e in tracer.events if e["type"] == "question"]
    assert len(questions) == exploitation
    assert sum(1 for q in questions if q["memo_hit"]) == memo

    # every question carries its full provenance
    for q in questions:
        assert q["loop"] and q["array"] and q["question"]
        assert q["result"] in ("SAT", "UNSAT", "UNKNOWN")
        assert isinstance(q["instances"], list)
        # SAT questions carry the counterexample model
        assert (q["result"] == "SAT") == ("witness" in q)

    # exactly one verdict event per analyzed array
    verdict_events = [e for e in tracer.events if e["type"] == "verdict"]
    expected = [(a.loop.var, name) for a in analyses
                for name in a.verdicts]
    assert sorted((v["loop"], v["array"]) for v in verdict_events) \
        == sorted(expected)
    for v, a_pair in zip(verdict_events, expected):
        analysis = next(a for a in analyses if a.loop.var == v["loop"])
        assert v["safe"] == analysis.verdicts[v["array"]].safe


def test_lbm_sat_witness_is_a_counterexample():
    """The failing srcgrid query's witness assigns distinct iterations
    to the clashing references (the root axiom i' != i holds)."""
    tracer = CollectingTracer()
    analyze_formad(build_lbm(), ["srcgrid"], ["dstgrid"], tracer=tracer)
    tracer.close()
    sat = [e for e in tracer.events
           if e["type"] == "question" and e["result"] == "SAT"]
    assert len(sat) == 1
    witness = sat[0]["witness"]
    primed = [k for k in witness if k.endswith("'")]
    assert primed, witness
    for k in primed:
        assert witness[k] != witness[k[:-1]]


def test_fact_events_carry_knowledge_provenance():
    tracer = CollectingTracer()
    analyze_formad(build_stencil(1), ["uold"], ["unew"], tracer=tracer)
    tracer.close()
    facts = [e for e in tracer.events if e["type"] == "fact"]
    assert facts
    for f in facts:
        assert f["loop"] == "i"
        assert f["context"]
        assert f["formula"]
