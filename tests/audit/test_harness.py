"""End-to-end audit: determinism, classification, chaos checks."""

import dataclasses
import json

import pytest

from repro.audit.campaign import (AUDIT_SCHEMA, CampaignConfig,
                                  format_campaign, run_campaign)
from repro.audit.generator import FAMILIES, generate_case
from repro.audit.harness import chaos_check, run_case
from repro.audit.chaos import ChaosConfig
from repro.experiments.specs import small_stencil_spec


@pytest.fixture(scope="module")
def one_round():
    """One case per family (the round-robin makes this exhaustive)."""
    return run_campaign(CampaignConfig(seed=0, count=len(FAMILIES)))


def _paper_kernel_entries(report):
    return [e for e in report.entries if e["family"] == "paper-kernel"]


class TestRunAudit:
    def test_no_soundness_violations(self, one_round):
        assert one_round.ok, format_campaign(one_round)

    def test_deterministic(self, one_round):
        again = run_campaign(CampaignConfig(seed=0, count=len(FAMILIES)))
        assert again.to_json() == one_round.to_json()

    def test_expected_classifications_per_family(self, one_round):
        by_family = {e["family"]: e for e in one_round.entries}
        assert by_family["elementwise"]["classifications"]["y"] \
            == "proven-safe-validated"
        assert by_family["gather_perm"]["classifications"]["x"] \
            == "sat-spurious-but-safe"
        assert by_family["gather_collide"]["classifications"]["x"] \
            == "sat-corroborated"
        assert by_family["atomic_scatter"]["classifications"]["y"] \
            == "fallback"
        # skipped-racy on a passing case: the detector caught the race
        # (a miss would be a missed-primal-race violation)
        assert by_family["racy_scatter"]["classifications"]["y"] \
            == "skipped-racy"
        assert by_family["racy_scatter"]["status"] == "pass"

    def test_report_json_schema(self, one_round):
        doc = json.loads(json.dumps(one_round.to_json()))
        assert doc["schema"] == AUDIT_SCHEMA
        assert doc["ok"] is True
        assert len(doc["cases"]) == len(FAMILIES)
        assert doc["violations"] == []
        assert set(doc["classifications"]) <= {
            "proven-safe-validated", "sat-corroborated",
            "sat-spurious-but-safe", "fallback", "skipped-racy"}
        assert sum(doc["classifications"].values()) == sum(
            len(case["classifications"]) for case in doc["cases"])

    def test_progress_callback_sees_every_case(self):
        seen = []
        run_campaign(CampaignConfig(seed=1, count=4), progress=seen.append)
        assert [e["index"] for e in seen] == [0, 1, 2, 3]


class TestRunCase:
    def test_racy_case_skips_oracles(self):
        spec = next(generate_case(i, seed=0) for i in range(len(FAMILIES))
                    if generate_case(i, seed=0).family == "racy_scalar")
        result = run_case(0, spec)
        assert result.primal_racy
        assert result.ok
        assert set(result.classifications.values()) == {"skipped-racy"}

    def test_missed_primal_race_is_a_violation(self):
        # an elementwise kernel falsely marked racy: the detector finds
        # nothing, which must be flagged as an oracle failure
        spec = dataclasses.replace(generate_case(0, seed=0),
                                   expect_primal_race=True)
        result = run_case(0, spec)
        assert [v.kind for v in result.violations] == ["missed-primal-race"]


class TestChaos:
    def test_verdict_upgrade_detected_against_fake_baseline(self):
        # an honest analysis compared against an all-unsafe baseline
        # must report every safe array as an (artificial) upgrade —
        # this exercises the violation path without breaking the engine
        spec = small_stencil_spec()
        honest = ChaosConfig()
        loops = spec.proc.parallel_loops()
        fake = {loop.uid: frozenset() for loop in loops}
        outcome = chaos_check(spec.proc, spec.independents,
                              spec.dependents, honest,
                              label="stencil_small", baseline=fake)
        assert outcome.violations
        assert {v.kind for v in outcome.violations} \
            == {"chaos-verdict-upgrade"}

    def test_sweep_paper_kernels_clean(self):
        report = run_campaign(CampaignConfig(
            seed=3, count=1, families=("elementwise",), chaos_rates=(0.5,)))
        kernels = _paper_kernel_entries(report)
        assert [e["case"] for e in kernels] == [
            "stencil_small@0.5", "stencil_large@0.5", "gfmc@0.5",
            "greengauss@0.5"]
        for entry in kernels:
            assert entry["status"] == "pass", entry
            # reproducible from kernel, rate and seed: never minimized
            assert entry["minimized"] is None and entry["corpus"] is None

    def test_injected_faults_counted(self):
        report = run_campaign(CampaignConfig(
            seed=0, count=1, families=("elementwise",), chaos_rates=(1.0,)))
        kernels = _paper_kernel_entries(report)
        assert sum(e["injected"] for e in kernels) >= len(kernels)
        assert all(e["degraded"] for e in kernels)


class TestFormatReport:
    def test_mentions_families_and_verdict_counts(self, one_round):
        text = format_campaign(one_round)
        assert "elementwise" in text
        assert "proven-safe-validated" in text
        assert "OK: no soundness violations" in text

    def test_failure_report_lists_violations(self):
        # an elementwise kernel falsely marked racy fails every run:
        # confirmed twice, ddmin-minimized, listed in the report
        def mislabeled(index, *, seed=0, families=()):
            return dataclasses.replace(generate_case(index, seed=seed),
                                       expect_primal_race=True)

        report = run_campaign(CampaignConfig(seed=0, count=1),
                              generate=mislabeled)
        text = format_campaign(report)
        assert "FAIL" in text and "missed-primal-race" in text
