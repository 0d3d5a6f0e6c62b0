"""CLI observability surface: --trace/--json, explain, profile."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.validate import main as validate_main, validate_file

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
STENCIL_F90 = str(EXAMPLES / "stencil_small.f90")
LBM_F90 = str(EXAMPLES / "lbm.f90")
STENCIL = ["-i", "uold", "-o", "unew"]
LBM = ["-i", "srcgrid", "-o", "dstgrid"]


@pytest.fixture(scope="module")
def stencil_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("obs") / "stencil.jsonl")
    assert main(["analyze", STENCIL_F90, *STENCIL,
                 "--trace", path]) == 0
    return path


@pytest.fixture(scope="module")
def lbm_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("obs") / "lbm.jsonl")
    assert main(["analyze", LBM_F90, *LBM, "--trace", path]) == 0
    return path


class TestAnalyzeTrace:
    def test_trace_is_schema_valid(self, stencil_trace):
        assert validate_file(stencil_trace) == []
        assert validate_main([stencil_trace]) == 0

    def test_replay_hint_on_stderr(self, stencil_trace, capsys):
        capsys.readouterr()
        assert main(["analyze", STENCIL_F90, *STENCIL,
                     "--trace", stencil_trace]) == 0
        err = capsys.readouterr().err
        assert "repro explain" in err and "repro profile" in err

    def test_validate_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1, "type": "mystery"}\n')
        assert validate_main([str(bad)]) == 1
        assert validate_main([]) == 2


class TestAnalyzeJson:
    def test_stable_machine_readable_output(self, capsys):
        assert main(["analyze", STENCIL_F90, *STENCIL,
                     "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema"] == "repro-analyze/1"
        assert doc["all_safe"] is True
        arrays = {v["array"]: v["safe"]
                  for loop in doc["loops"] for v in loop["verdicts"]}
        assert arrays == {"unew": True, "uold": True}
        assert doc["totals"]["schema"] == "repro-metrics/1"
        assert doc["totals"]["exploitation_checks"] == 3
        # byte-stable key order: the output IS its own sorted dump
        assert out.strip() == json.dumps(doc, indent=2, sort_keys=True)

    def test_json_reports_unsafe(self, capsys):
        assert main(["analyze", LBM_F90, *LBM, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_safe"] is False


class TestExplain:
    def test_unsat_chain_for_adjoint_array(self, stencil_trace, capsys):
        assert main(["explain", stencil_trace, "--array", "uoldb"]) == 0
        out = capsys.readouterr().out
        assert "adjoint of 'uold'" in out
        assert "SAFE" in out
        assert out.count("UNSAT") == 3        # the three proven pairs
        assert "i' ≠ i" in out           # the root axiom

    def test_sat_witness_for_rejected_lbm(self, lbm_trace, capsys):
        assert main(["explain", lbm_trace, "--array", "srcgridb"]) == 0
        out = capsys.readouterr().out
        assert "UNSAFE" in out
        assert "counterexample" in out
        assert "i_0' = " in out               # the witness model

    def test_unknown_array_lists_candidates(self, stencil_trace, capsys):
        assert main(["explain", stencil_trace, "--array", "nope"]) == 0
        out = capsys.readouterr().out
        assert "no verdict" in out and "uold" in out

    def test_missing_trace_file(self, capsys):
        assert main(["explain", "/no/such/file.jsonl",
                     "--array", "u"]) == 1
        assert "error" in capsys.readouterr().err


class TestProfile:
    def test_span_tree_and_context_table(self, stencil_trace, capsys):
        assert main(["profile", stencil_trace]) == 0
        out = capsys.readouterr().out
        assert "analysis.loop" in out
        assert "analysis.build_model" in out
        assert "analysis.array" in out
        assert "root" in out                  # the context table

    def test_missing_trace_file(self, capsys):
        assert main(["profile", "/no/such/file.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_slowest_units_skip_units_without_a_time(self):
        # Audit traces older than audit_case's dur_s carry no unit time.
        from repro.obs.profile import slowest_units
        unit = {"type": "audit_case", "family": "f", "violations": []}
        events = [{**unit, "case": "0"}, {**unit, "case": "1", "dur_s": 0.2},
                  {**unit, "case": "2", "dur_s": 0.5}]
        assert slowest_units(events) == [("2", "f", 0.5), ("1", "f", 0.2)]
        assert slowest_units(events, limit=1) == [("2", "f", 0.5)]


class TestMalformedTrace:
    """``explain`` and ``profile`` load traces through one path: a line
    that is not an object, or an event without a common or required
    field, is an ``error:`` line and exit 1, never a traceback."""

    COMMANDS = {"explain": ["--array", "uoldb"], "profile": []}

    def _write(self, stencil_trace, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(Path(stencil_trace).read_text() + line + "\n")
        return str(bad)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("line", [
        '{"bad": 1}', "[1]", '{"type": "verdict"}',
        '{"type": "span_end", "name": "x"}'],
        ids=["not-an-event", "not-an-object", "verdict-without-fields",
             "span-end-without-fields"])
    def test_unreplayable_line_is_an_error(self, stencil_trace, tmp_path,
                                           capsys, command, line):
        bad = self._write(stencil_trace, tmp_path, line)
        capsys.readouterr()
        assert main([command, bad, *self.COMMANDS[command]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_required_field_is_an_error(self, stencil_trace,
                                                tmp_path, capsys):
        events = [json.loads(line)
                  for line in Path(stencil_trace).read_text().splitlines()]
        verdict = next(e for e in events if e["type"] == "verdict")
        del verdict["array"]
        bad = self._write(stencil_trace, tmp_path, json.dumps(verdict))
        capsys.readouterr()
        for command, extra in self.COMMANDS.items():
            assert main([command, bad, *extra]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: event {len(events)}: ")
            assert "verdict: missing field 'array'" in err


class TestOlderTraceSchema:
    def test_v1_trace_still_replays_with_a_warning(self, stencil_trace,
                                                    tmp_path, capsys):
        old = tmp_path / "v1.jsonl"
        with open(stencil_trace) as src, open(old, "w") as dst:
            for line in src:
                event = dict(json.loads(line), v=1)
                if event["type"] == "meta":
                    event["schema"] = "repro-trace/1"
                dst.write(json.dumps(event) + "\n")
        capsys.readouterr()
        assert main(["explain", str(old), "--array", "uoldb"]) == 0
        captured = capsys.readouterr()
        assert "schema violation" in captured.err
        assert "SAFE" in captured.out and "UNSAT" in captured.out
        assert main(["profile", str(old)]) == 0
        assert "analysis.loop" in capsys.readouterr().out
