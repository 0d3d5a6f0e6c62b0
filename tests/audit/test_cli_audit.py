"""The ``repro audit`` subcommand."""

import json

from repro.audit.campaign import DEFAULT_CHAOS_RATES
from repro.cli import main
from repro.obs.events import validate_events
from repro.obs.tracer import load_trace
from repro.resilience.journal import JournalWriter


def _check_unit_times(tmp_path, capsys, *extra):
    """An audit trace validates and times each unit, the report does
    not, and ``repro profile`` lists the units by time."""
    trace, report = tmp_path / "audit.jsonl", tmp_path / "audit.json"
    assert main(["audit", "--seed", "0", "--count", "3", *extra,
                 "--trace", str(trace), "--report", str(report)]) == 0
    events = load_trace(str(trace))
    assert validate_events(events) == []
    cases = [e for e in events if e["type"] == "audit_case"]
    assert len(cases) == 3
    assert all(e["dur_s"] > 0 for e in cases)
    assert "dur_s" not in report.read_text()
    capsys.readouterr()
    assert main(["profile", str(trace)]) == 0
    out = capsys.readouterr().out
    listed = out.split("slowest audit units")[1].split("\n\n")[0]
    assert sorted(line.split()[0] for line in listed.splitlines()[1:]) \
        == ["0", "1", "2"]


class TestAuditCommand:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "audit.json"
        code = main(["audit", "--seed", "0", "--count", "6",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: no soundness violations" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro-audit/2"
        assert doc["ok"] is True
        assert len(doc["cases"]) == 6

    def test_chaos_flag_with_rates(self, capsys):
        code = main(["audit", "--seed", "0", "--count", "2",
                     "--chaos", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos:" in out

    def test_chaos_run_injects_faults_at_every_default_rate(self, tmp_path):
        # Every chaos unit draws a fault schedule of its own; when all
        # units of one rate shared one, rate 0.1 struck nothing here.
        report = tmp_path / "audit.json"
        assert main(["audit", "--seed", "0", "--count", "50", "--chaos",
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        chaos = [e for e in doc["cases"] if "injected" in e]
        for rate in DEFAULT_CHAOS_RATES:
            assert sum(e["injected"] for e in chaos
                       if e["rate"] == rate) > 0, rate
        kernels = [e for e in chaos if e["family"] == "paper-kernel"]
        assert len(kernels) == 4 * len(DEFAULT_CHAOS_RATES)
        assert doc["statuses"] == {"pass": len(doc["cases"])}

    def test_inline_and_jobs_write_identical_reports(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_FAULT", raising=False)
        inline, pooled = tmp_path / "inline.json", tmp_path / "jobs.json"
        argv = ["audit", "--seed", "0", "--count", "6", "--chaos", "0.5"]
        assert main([*argv, "--report", str(inline)]) == 0
        assert main([*argv, "--jobs", "2", "--report", str(pooled)]) == 0
        assert inline.read_bytes() == pooled.read_bytes()

    def test_campaign_journal_is_refused_unchanged(self, tmp_path, capsys):
        journal = tmp_path / "campaign.jsonl"
        writer = JournalWriter(str(journal), meta={
            "schema": "repro-campaign/1", "fingerprint": "f", "seed": 0,
            "count": 1})
        writer.record("case_done", case="0", status="pass")
        writer.close()
        before = journal.read_bytes()
        assert main(["audit", "--count", "1",
                     "--journal", str(journal)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "repro-campaign/1" in err[0]
        assert journal.read_bytes() == before

    def test_trace_stream_is_schema_valid(self, tmp_path, capsys):
        _check_unit_times(tmp_path, capsys)

    def test_jobs_trace_times_each_unit(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_FAULT", raising=False)
        _check_unit_times(tmp_path, capsys, "--jobs", "2")

    def test_report_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["audit", "--seed", "4", "--count", "4",
                     "--report", str(a)]) == 0
        assert main(["audit", "--seed", "4", "--count", "4",
                     "--report", str(b)]) == 0
        assert a.read_text() == b.read_text()
