"""The audit runner: quarantine state machine, crash-safe resume
identity, worker-loss containment, the violation → ddmin → corpus →
replay pipeline, and the CLI kill -9 + rerun smoke test.

The load-bearing contracts under test:

* a settled case is journaled before anything else observes it, so a
  SIGKILLed campaign loses at most the cases in flight, and rerunning
  the same command on the same journal re-runs none of the settled
  ones (a journal of another campaign is refused, never overwritten);
* the report carries no timers, so a resumed report is *identical* to
  an uninterrupted run's;
* a fail-then-pass case is flaky (never a violation), and a violation
  requires two consecutive failures on clean workers;
* every confirmed violation lands in the content-addressed corpus as a
  minimized spec that ``repro corpus replay`` reproduces.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.audit.campaign import (DEFAULT_CHAOS_RATES, RETRY_CAP,
                                  CampaignConfig, QuarantineState,
                                  campaign_fingerprint, enumerate_units,
                                  run_campaign, run_unit_inline)
from repro.audit.corpus import commit_entry, load_corpus, replay_corpus
from repro.audit.generator import (CaseSpec, IndexSpec, ReadSpec, StmtSpec,
                                   generate_case)
from repro.audit.harness import run_case
from repro.resilience.deadline import Deadline
from repro.resilience.journal import JournalError, read_journal


# ----------------------------------------------------------------------
# Quarantine state machine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_first_pass_is_terminal(self):
        q = QuarantineState()
        assert q.observe(False) == "pass"
        assert q.settled
        assert (q.runs, q.failures) == (1, 0)
        with pytest.raises(RuntimeError):
            q.observe(False)

    def test_fail_then_fail_confirms_violation(self):
        q = QuarantineState()
        assert q.observe(True) == "suspect"
        assert not q.settled
        assert q.observe(True) == "violation"
        assert q.settled
        assert (q.runs, q.failures) == (2, 2)

    def test_fail_then_pass_is_flaky_not_violation(self):
        q = QuarantineState(flake_cap=3)
        assert q.observe(True) == "suspect"
        assert q.observe(False) == "flaky"
        assert not q.settled

    def test_flaky_case_can_still_confirm(self):
        q = QuarantineState(flake_cap=3)
        q.observe(True)                       # suspect
        q.observe(False)                      # flaky
        assert q.observe(True) == "suspect"   # may still confirm
        assert q.observe(True) == "violation"

    def test_persistent_flake_is_parked_at_cap(self):
        q = QuarantineState(flake_cap=1)
        q.observe(True)                       # suspect  (run 1)
        q.observe(False)                      # flaky    (run 2)
        assert q.observe(False) == "quarantined"   # run 3 = 2 + cap
        assert q.settled
        assert q.failures == 1

    def test_zero_cap_parks_immediately_after_flake(self):
        q = QuarantineState(flake_cap=0)
        q.observe(True)
        assert q.observe(False) == "quarantined"


# ----------------------------------------------------------------------
# The unit stream and its fingerprint
# ----------------------------------------------------------------------
class TestUnitStream:
    def test_chaos_rates_share_the_clean_spec(self):
        cfg = CampaignConfig(seed=3, count=2, families=("elementwise",),
                             chaos_rates=(0.5,))
        units = enumerate_units(cfg)
        assert [u.case_id for u in units] == [
            "0", "0@0.5", "1", "1@0.5", "stencil_small@0.5",
            "stencil_large@0.5", "gfmc@0.5", "greengauss@0.5"]
        assert units[0].spec == units[1].spec
        assert units[0].rate == 0.0 and units[1].rate == 0.5
        # after the generated cases, one unit per (paper kernel, rate)
        assert [(u.kernel, u.index, u.spec) for u in units[4:5]] \
            == [("stencil_small", -1, None)]

    def test_case_ids_are_unique(self):
        cfg = CampaignConfig(seed=0, count=3, families=("elementwise",),
                             chaos_rates=DEFAULT_CHAOS_RATES)
        ids = [u.case_id for u in enumerate_units(cfg)]
        assert len(ids) == 3 * 6 + 4 * 5
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("rates", [(0.5, 0.5), (0.1, 0.25, 0.1000001)])
    def test_repeated_rate_is_refused(self, rates):
        # 0.1000001 prints as 0.1: it would name the units of 0.1.
        with pytest.raises(ValueError, match="distinct"):
            CampaignConfig(count=2, chaos_rates=rates)

    def test_fingerprint_pins_stream_not_resources(self):
        base = CampaignConfig(seed=0, count=4, families=("elementwise",))
        same = dataclasses.replace(base, jobs=8, kill_timeout=5.0,
                                   case_timeout=1.0)
        assert campaign_fingerprint(base) == campaign_fingerprint(same)
        same = dataclasses.replace(base, jobs=None)
        assert campaign_fingerprint(base) == campaign_fingerprint(same)
        for other in (dataclasses.replace(base, seed=1),
                      dataclasses.replace(base, count=5),
                      dataclasses.replace(base, chaos_rates=(0.5,)),
                      dataclasses.replace(base, families=("guarded",))):
            assert campaign_fingerprint(other) != campaign_fingerprint(base)


# ----------------------------------------------------------------------
# Unit execution: determinism and deadline truncation
# ----------------------------------------------------------------------
class TestUnitExecution:
    def test_chaos_unit_is_deterministic_across_calls(self):
        # The satellite-2 contract: every probe of the same (spec,
        # index, rate, seed) sees the identical fault schedule, so a
        # ddmin shrink attempt or corpus replay reproduces the run.
        spec = generate_case(0, seed=0, families=("elementwise",))
        first = run_unit_inline(spec, index=0, rate=0.5, seed=7)
        second = run_unit_inline(spec, index=0, rate=0.5, seed=7)
        assert first == second
        assert first["injected"] > 0

    def test_expired_deadline_truncates_case(self):
        spec = generate_case(0, seed=0, families=("elementwise",))
        result = run_case(0, spec, deadline=Deadline(0.0))
        assert result.truncated
        assert result.violations == []


# ----------------------------------------------------------------------
# Campaign orchestration (in-process, real worker pool)
# ----------------------------------------------------------------------
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKER_FAULT", raising=False)


class TestCampaignResume:
    def test_resume_skips_settled_and_report_is_identical(
            self, tmp_path, monkeypatch):
        _clean_env(monkeypatch)
        journal = tmp_path / "campaign.jsonl"
        cfg = CampaignConfig(seed=0, count=3, families=("elementwise",),
                             jobs=2)

        first = run_campaign(cfg, journal_path=str(journal))
        assert first.ok
        assert first.statuses() == {"pass": 3}
        assert [e["case"] for e in first.entries] == ["0", "1", "2"]

        # the same campaign on the same journal continues it
        resumed = run_campaign(cfg, journal_path=str(journal))
        assert resumed.resumed == 3
        assert resumed.to_json() == first.to_json()

        # no settled case re-ran: the journal holds each exactly once
        _, records, dropped = read_journal(str(journal))
        assert dropped == 0
        done = [r["case"] for r in records if r.get("kind") == "case_done"]
        assert sorted(done) == ["0", "1", "2"]

    def test_resume_refuses_foreign_journal(self, tmp_path, monkeypatch):
        _clean_env(monkeypatch)
        journal = tmp_path / "campaign.jsonl"
        cfg = CampaignConfig(seed=0, count=1, families=("elementwise",),
                             jobs=1)
        run_campaign(cfg, journal_path=str(journal))
        before = journal.read_bytes()
        other = dataclasses.replace(cfg, seed=1)
        with pytest.raises(JournalError, match="fingerprint mismatch"):
            run_campaign(other, journal_path=str(journal))
        assert journal.read_bytes() == before

    def test_rerun_refuses_a_journal_without_a_header(self, tmp_path,
                                                      monkeypatch):
        _clean_env(monkeypatch)
        journal = tmp_path / "campaign.jsonl"
        journal.write_text("not a journal line\n")
        cfg = CampaignConfig(seed=0, count=1, families=("elementwise",),
                             jobs=1)
        with pytest.raises(JournalError, match="no intact"):
            run_campaign(cfg, journal_path=str(journal))
        assert journal.read_text() == "not a journal line\n"

    def test_empty_journal_starts_fresh(self, tmp_path, monkeypatch):
        _clean_env(monkeypatch)
        journal = tmp_path / "campaign.jsonl"
        journal.write_text("")
        cfg = CampaignConfig(seed=0, count=1, families=("elementwise",),
                             jobs=1)
        report = run_campaign(cfg, journal_path=str(journal))
        assert report.resumed == 0
        assert report.statuses() == {"pass": 1}
        meta, records, dropped = read_journal(str(journal))
        assert meta["fingerprint"] == campaign_fingerprint(cfg)
        assert [r["case"] for r in records] == ["0"]
        assert dropped == 0


class TestCampaignContainment:
    def test_lost_worker_degrades_only_its_case(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_FAULT", "exit:3@1")
        cfg = CampaignConfig(seed=0, count=3, families=("elementwise",),
                             jobs=1)
        report = run_campaign(cfg)
        statuses = {e["case"]: e["status"] for e in report.entries}
        assert statuses == {"0": "pass", "1": "unknown", "2": "pass"}
        assert report.ok, "a lost worker is not a soundness violation"
        unknown = next(e for e in report.entries if e["case"] == "1")
        assert unknown["detail"].startswith("worker lost")
        assert unknown["retries"] == RETRY_CAP + 1

    def test_case_deadline_settles_as_contained_unknown(self, monkeypatch):
        _clean_env(monkeypatch)
        cfg = CampaignConfig(seed=0, count=1, families=("elementwise",),
                             jobs=1, case_timeout=1e-6)
        report = run_campaign(cfg)
        assert report.statuses() == {"unknown": 1}
        assert report.entries[0]["detail"] == "case deadline expired"
        assert report.ok

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_feeder_exception_reaches_the_caller(self, tmp_path, jobs,
                                                 monkeypatch):
        # Worker loss is contained per case; an exception of the
        # campaign's own (a failed journal write, say) is not: it must
        # surface, not settle every unit as "truncated" under an "OK".
        import repro.audit.campaign as campaign

        def broken(*args, **kwargs):
            raise OSError("journal disk full")

        monkeypatch.setattr(campaign, "_run_unit", broken)
        journal = tmp_path / "campaign.jsonl"
        cfg = CampaignConfig(seed=0, count=2, families=("elementwise",),
                             jobs=jobs)
        with pytest.raises(OSError, match="journal disk full"):
            run_campaign(cfg, journal_path=str(journal))
        meta, records, _ = read_journal(str(journal))
        assert meta is not None and records == []


# ----------------------------------------------------------------------
# Violation → ddmin → corpus → replay
# ----------------------------------------------------------------------
def _bloated_violating_spec() -> CaseSpec:
    """A real overlapping-write race mislabeled as race-free, buried
    under irrelevant structure — the campaign must confirm it twice,
    shrink it, and commit the minimized repro to the corpus."""
    return CaseSpec(
        family="racy_overlap", seed=0, n=32, expect_primal_race=False,
        tables=(("p", "permutation"),),
        inner_reps=2,
        stmts=(
            StmtSpec("assign", "z", IndexSpec(),
                     (ReadSpec("x", IndexSpec(table="p"), 0.5),
                      ReadSpec("x", IndexSpec(), 1.5)),
                     guard_gt=3),
            StmtSpec("assign", "y", IndexSpec(),
                     (ReadSpec("x", IndexSpec(), 1.0),)),
            StmtSpec("increment", "y", IndexSpec(offset=1),
                     (ReadSpec("x", IndexSpec(offset=2), 2.0),)),
        ))


def _generate_with_violation(index, *, seed=0, families=()):
    if index == 1:
        return _bloated_violating_spec()
    return generate_case(index, seed=seed, families=("elementwise",))


class TestViolationCorpus:
    def test_confirmed_violation_is_minimized_and_replayable(
            self, tmp_path, monkeypatch):
        _clean_env(monkeypatch)
        corpus_dir = tmp_path / "corpus"
        cfg = CampaignConfig(seed=0, count=2, families=("elementwise",),
                             jobs=1, corpus_dir=str(corpus_dir))
        report = run_campaign(cfg, generate=_generate_with_violation)

        assert not report.ok
        assert len(report.violations) == 1
        entry = report.violations[0]
        assert entry["case"] == "1"
        # confirmation = two consecutive failures on clean workers
        assert (entry["runs"], entry["failures"]) == (2, 2)
        kinds = {v["kind"] for v in entry["violations"]}
        assert "unexpected-primal-race" in kinds

        # ddmin stripped the irrelevant structure
        assert entry["minimized"] is not None
        assert len(entry["minimized"]["stmts"]) < 3
        assert not entry["minimized"]["tables"]

        # the corpus holds one content-addressed minimized repro ...
        entries = load_corpus(str(corpus_dir))
        assert len(entries) == 1
        path, corpus_entry = entries[0]
        assert entry["corpus"] == os.path.basename(path)
        # ... that the replay gate reproduces deterministically
        results = replay_corpus(str(corpus_dir))
        assert [r.reproduced for r in results] == [True]

        # content addressing: recommitting the same failure is a no-op
        again, created = commit_entry(str(corpus_dir), corpus_entry)
        assert again == path and not created
        assert len(load_corpus(str(corpus_dir))) == 1

    def test_empty_corpus_replays_clean(self, tmp_path):
        assert replay_corpus(str(tmp_path / "missing")) == []


# ----------------------------------------------------------------------
# kill -9 the campaign mid-round; rerunning the command completes it (CLI)
# ----------------------------------------------------------------------
def _env():
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src_root)
    env.pop("REPRO_WORKER_FAULT", None)
    return env


def _audit_cmd(*extra):
    return [sys.executable, "-m", "repro", "audit", "--seed", "0",
            "--count", "6", *extra]


class TestKillCampaignResume:
    """SIGKILL the whole ``audit --jobs 1`` process group mid-round;
    rerunning the same command must skip every settled case and produce
    a report identical to an uninterrupted (inline) run's."""

    @pytest.mark.slow
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        env = _env()

        base_report = tmp_path / "base.json"
        baseline = subprocess.run(
            _audit_cmd("--report", str(base_report)),
            cwd=str(tmp_path), env=env, capture_output=True, text=True)
        assert baseline.returncode == 0, baseline.stderr
        base_doc = json.loads(base_report.read_text())
        assert base_doc["statuses"] == {"pass": 6}

        # interrupted run: the worker hangs on case 3 (after settling
        # 0..2); we SIGKILL the whole group once two cases are durable
        journal = tmp_path / "campaign.jsonl"
        hang_env = dict(env, REPRO_WORKER_FAULT="hang:120@3")
        victim = subprocess.Popen(
            _audit_cmd("--jobs", "1", "--journal", str(journal),
                       "--kill-timeout", "120"),
            cwd=str(tmp_path), env=hang_env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            settled_before_kill = []
            while time.monotonic() < deadline:
                if journal.exists():
                    _, records, _ = read_journal(str(journal))
                    settled_before_kill = [
                        r["case"] for r in records
                        if r.get("kind") == "case_done"]
                    if len(settled_before_kill) >= 2:
                        break
                time.sleep(0.1)
            assert len(settled_before_kill) >= 2, \
                "no cases settled in the journal before the kill window"
        finally:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()

        # kill -9 mid-round lost at most the case in flight
        _, records, dropped = read_journal(str(journal))
        assert dropped == 0
        done = [r["case"] for r in records if r.get("kind") == "case_done"]
        assert set(settled_before_kill) <= set(done)
        assert "3" not in done, "the hung case must not have settled"

        resume_report = tmp_path / "resumed.json"
        resumed = subprocess.run(
            _audit_cmd("--jobs", "1", "--journal", str(journal),
                       "--report", str(resume_report)),
            cwd=str(tmp_path), env=env, capture_output=True, text=True)
        assert resumed.returncode == 0, resumed.stderr
        assert f"resumed: {len(done)} settled case(s)" in resumed.stdout

        # no settled case re-ran: each id appears exactly once
        _, records, dropped = read_journal(str(journal))
        assert dropped == 0
        final = [r["case"] for r in records if r.get("kind") == "case_done"]
        assert sorted(final) == ["0", "1", "2", "3", "4", "5"]
        for case in done:
            assert final.count(case) == 1, f"case {case} re-ran"

        # the resumed report is the uninterrupted one, bit for bit
        assert json.loads(resume_report.read_text()) == base_doc
