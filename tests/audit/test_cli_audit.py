"""The ``repro audit`` subcommand."""

import json

from repro.cli import main


class TestAuditCommand:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "audit.json"
        code = main(["audit", "--seed", "0", "--count", "6",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: no soundness violations" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro-audit/1"
        assert doc["ok"] is True
        assert len(doc["cases"]) == 6

    def test_chaos_flag_with_rates(self, capsys):
        code = main(["audit", "--seed", "0", "--count", "2",
                     "--chaos", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos:" in out

    def test_trace_stream_is_schema_valid(self, tmp_path):
        trace = tmp_path / "audit.jsonl"
        code = main(["audit", "--seed", "0", "--count", "3",
                     "--trace", str(trace)])
        assert code == 0
        from repro.obs.events import validate_events
        from repro.obs.tracer import load_trace
        events = load_trace(str(trace))
        assert validate_events(events) == []
        assert sum(1 for e in events if e["type"] == "audit_case") == 3

    def test_report_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["audit", "--seed", "4", "--count", "4",
                     "--report", str(a)]) == 0
        assert main(["audit", "--seed", "4", "--count", "4",
                     "--report", str(b)]) == 0
        assert a.read_text() == b.read_text()
