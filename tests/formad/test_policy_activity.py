"""``differentiate_reverse`` reuses the activity analysis that a FormAD
policy built for the same procedure, independents and dependents, and
builds its own otherwise."""

import pytest

from repro import differentiate, differentiate_reverse, parse_procedure
from repro.ad.guards import GuardPolicy
from repro.ad.strategies import ATOMIC
from repro.analysis.activity import ActivityAnalysis
from repro.formad import FormADGuardPolicy
from repro.ir.printer import format_procedure

from .test_engine import FIG2


class PrebuiltPolicy(GuardPolicy):
    """Atomics everywhere, with a given activity analysis."""

    def __init__(self, activity: ActivityAnalysis) -> None:
        self.activity = activity

    def decide(self, loop, primal_array):
        return ATOMIC


@pytest.fixture
def constructions(monkeypatch):
    """Every ``ActivityAnalysis`` built while the test runs."""
    built = []
    post_init = ActivityAnalysis.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(ActivityAnalysis, "__post_init__", counting)
    return built


def test_formad_differentiate_builds_one_analysis(constructions):
    proc = parse_procedure(FIG2)
    adj = differentiate(proc, ["x"], ["y"], strategy="formad")
    assert len(constructions) == 1
    assert adj.activity is constructions[0]


def test_policy_analysis_is_reused_for_equal_arguments(constructions):
    proc = parse_procedure(FIG2)
    policy = FormADGuardPolicy(proc, ("x",), ("y",))
    adj = differentiate_reverse(proc, ["x"], ["y"], policy=policy)
    assert adj.activity is policy.activity
    assert len(constructions) == 1


def test_formad_policy_with_other_independents_is_not_reused(constructions):
    proc = parse_procedure(FIG2)
    policy = FormADGuardPolicy(proc, ["x", "y"], ["y"])
    adj = differentiate_reverse(proc, ["x"], ["y"], policy=policy)
    assert len(constructions) == 2
    assert adj.activity is not policy.activity
    assert list(adj.activity.independents) == ["x"]


@pytest.mark.parametrize("other", ["procedure", "independents",
                                   "dependents"])
def test_no_reuse_for_other_arguments(constructions, other):
    proc = parse_procedure(FIG2)
    ind, dep = ["x"], ["y"]
    policy = PrebuiltPolicy(ActivityAnalysis(
        parse_procedure(FIG2) if other == "procedure" else proc,
        ["x", "y"] if other == "independents" else ind,
        ["x", "y"] if other == "dependents" else dep))
    adj = differentiate_reverse(proc, ind, dep, policy=policy)
    assert len(constructions) == 2
    assert adj.activity is not policy.activity
    assert adj.activity.proc is proc
    assert (adj.activity.independents, adj.activity.dependents) == (ind, dep)


def test_reused_analysis_gives_the_same_adjoint():
    proc = parse_procedure(FIG2)
    reused = differentiate(proc, ["x"], ["y"], strategy="formad")
    policy = FormADGuardPolicy(proc, ["x"], ["y"])
    policy.activity = None
    fresh = differentiate_reverse(proc, ["x"], ["y"], policy=policy)
    assert fresh.activity is not policy.engine.activity
    assert format_procedure(reused.procedure) \
        == format_procedure(fresh.procedure)
