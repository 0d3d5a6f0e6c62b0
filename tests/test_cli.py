"""Tests for the command-line front end."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"

FIG2 = """
subroutine fig2(x, y, c, n)
  integer, intent(in) :: n
  real, intent(in) :: x(2000)
  real, intent(out) :: y(1000)
  integer, intent(in) :: c(1000)
  !$omp parallel do
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine fig2
"""


@pytest.fixture()
def src_file(tmp_path):
    path = tmp_path / "fig2.f90"
    path.write_text(FIG2)
    return str(path)


class TestAnalyze:
    def test_prints_verdicts_and_stats(self, src_file, capsys):
        assert main(["analyze", src_file, "-i", "x", "-o", "y"]) == 0
        out = capsys.readouterr().out
        assert "safe (shared)" in out
        assert "model_size=" in out

    def test_no_parallel_loops(self, tmp_path, capsys):
        path = tmp_path / "plain.f90"
        path.write_text("""
subroutine plain(x, y)
  real, intent(in) :: x
  real, intent(out) :: y
  y = x * 2.0
end subroutine plain
""")
        assert main(["analyze", str(path), "-i", "x", "-o", "y"]) == 0
        assert "no parallel loops" in capsys.readouterr().out


class TestDifferentiate:
    def test_formad_strategy_to_stdout(self, src_file, capsys):
        assert main(["differentiate", src_file, "-i", "x", "-o", "y"]) == 0
        out = capsys.readouterr().out
        assert "subroutine fig2_b" in out
        assert "!$omp atomic" not in out  # FormAD proved safety

    def test_atomic_strategy(self, src_file, capsys):
        assert main(["differentiate", src_file, "-i", "x", "-o", "y",
                     "--strategy", "atomic"]) == 0
        assert "!$omp atomic" in capsys.readouterr().out

    def test_output_file(self, src_file, tmp_path, capsys):
        out_file = tmp_path / "adjoint.f90"
        assert main(["differentiate", src_file, "-i", "x", "-o", "y",
                     "-O", str(out_file)]) == 0
        assert "subroutine fig2_b" in out_file.read_text()

    def test_head_selection(self, tmp_path, capsys):
        path = tmp_path / "two.f90"
        path.write_text(FIG2 + "\nsubroutine other()\nend subroutine other\n")
        assert main(["differentiate", str(path), "-i", "x", "-o", "y",
                     "--head", "fig2"]) == 0
        assert "fig2_b" in capsys.readouterr().out

    def test_unknown_head_fails(self, src_file):
        with pytest.raises(SystemExit):
            main(["differentiate", src_file, "-i", "x", "-o", "y",
                  "--head", "nope"])

    def test_bad_independent_reports_error(self, src_file, capsys):
        assert main(["differentiate", src_file, "-i", "zz", "-o", "y"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTangent:
    def test_tangent_to_stdout(self, src_file, capsys):
        assert main(["tangent", src_file, "-i", "x", "-o", "y"]) == 0
        out = capsys.readouterr().out
        assert "subroutine fig2_d" in out
        assert "yd(c(i)) = xd(c(i) + 7)" in out


class TestParseErrors:
    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.f90"
        path.write_text("subroutine oops(\n")
        assert main(["analyze", str(path), "-i", "x", "-o", "y"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBadPaths:
    @pytest.mark.parametrize("argv", [
        ["analyze", "{missing}", "-i", "x", "-o", "y"],
        ["differentiate", "{missing}", "-i", "x", "-o", "y"],
        ["analyze", "{dir}", "-i", "x", "-o", "y"],
        ["differentiate", "{src}", "-i", "x", "-o", "y",
         "-O", "{missing}/out.f90"],
        ["analyze", "{src}", "-i", "x", "-o", "y",
         "--trace", "{missing}/t.jsonl"],
    ], ids=["analyze-missing-input", "differentiate-missing-input",
            "directory-input", "output-in-missing-dir",
            "trace-in-missing-dir"])
    def test_os_error_is_an_error_line(self, argv, src_file, tmp_path,
                                       capsys):
        paths = {"src": src_file, "dir": str(tmp_path),
                 "missing": str(tmp_path / "missing")}
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


ANALYZE = ["analyze", "k.f90", "-i", "x", "-o", "y"]


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [
        [*ANALYZE, "--progress", "0"],
        [*ANALYZE, "--progress", "-1"],
        [*ANALYZE, "--progress", "inf"],
        ["audit", "--progress", "0"],
        [*ANALYZE, "--jobs", "0"],
        [*ANALYZE, "--jobs", "-2"],
        ["audit", "--jobs", "0"],
        ["cache", "evict", "--cache-dir", "d", "--max-bytes", "-1"],
        [*ANALYZE, "--deadline", "-1"],
        [*ANALYZE, "--deadline", "nan"],
        [*ANALYZE, "--deadline", "inf"],
        [*ANALYZE, "--question-timeout", "-1"],
        [*ANALYZE, "--kill-timeout", "-1"],
        [*ANALYZE, "--escalate", "0"],
        [*ANALYZE, "--escalate", "-3"],
        ["experiments", "--deadline", "-1"],
        ["audit", "--count", "-2"],
        ["audit", "--count", "0"],
        ["audit", "--count", "2", "--chaos", "0.5", "0.5"],
        ["audit", "--deadline", "nan"],
        ["audit", "--case-timeout", "-1"],
        ["audit", "--question-timeout", "-1"],
        # The campaign driver: audit settling its units on a worker pool.
        ["audit", "--jobs", "2", "--count", "0"],
        ["audit", "--jobs", "2", "--case-timeout", "-1"],
        ["audit", "--question-timeout", "nan"],
        ["audit", "--kill-timeout", "-1"],
        ["audit", "--deadline", "-1"],
        ["corpus", "replay", "--case-timeout", "-1"],
        ["audit", "--count", "1", "--chaos", "-0.5"],
        ["audit", "--count", "1", "--chaos", "nan"],
        ["audit", "--count", "1", "--chaos", "1.5"],
    ], ids=["analyze-progress-0", "analyze-progress-negative",
            "analyze-progress-inf", "audit-progress-0", "analyze-jobs-0",
            "analyze-process-jobs-negative", "audit-jobs-0",
            "cache-max-bytes-negative",
            "analyze-deadline-negative", "analyze-deadline-nan",
            "analyze-deadline-inf", "analyze-question-timeout-negative",
            "analyze-kill-timeout-negative", "analyze-escalate-0",
            "analyze-escalate-negative", "experiments-deadline-negative",
            "audit-count-negative", "audit-count-0",
            "audit-chaos-repeated-rate", "audit-deadline-nan",
            "audit-case-timeout-negative",
            "audit-question-timeout-negative", "campaign-count-0",
            "campaign-case-timeout-negative", "audit-question-timeout-nan",
            "audit-kill-timeout-negative", "audit-deadline-negative",
            "corpus-case-timeout-negative", "audit-chaos-negative",
            "audit-chaos-nan", "audit-chaos-above-1"])
    def test_out_of_range_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_boundary_values_parse(self):
        args = build_parser().parse_args(
            [*ANALYZE, "--jobs", "1", "--progress", "0.5",
             "--deadline", "0", "--question-timeout", "0",
             "--kill-timeout", "0", "--escalate", "1"])
        assert (args.jobs, args.progress) == (1, 0.5)
        assert (args.deadline, args.question_timeout, args.kill_timeout,
                args.escalate) == (0.0, 0.0, 0.0, 1)
        args = build_parser().parse_args(
            ["cache", "evict", "--cache-dir", "d", "--max-bytes", "0"])
        assert args.max_bytes == 0
        args = build_parser().parse_args(["audit", "--progress"])
        assert (args.progress, args.jobs, args.count) == (2.0, None, 50)
        args = build_parser().parse_args(
            ["audit", "--count", "1", "--jobs", "1", "--case-timeout", "0",
             "--kill-timeout", "0"])
        assert (args.count, args.jobs, args.case_timeout,
                args.kill_timeout) == (1, 1, 0.0, 0.0)
        args = build_parser().parse_args(["audit", "--chaos", "0", "1"])
        assert args.chaos == [0.0, 1.0]
        assert build_parser().parse_args(["audit", "--chaos"]).chaos == []


class TestAnalyzeStrategy:
    def test_json_has_no_strategy_key_without_flag(self, src_file, capsys):
        import json

        assert main(["analyze", src_file, "-i", "x", "-o", "y",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "strategy" not in doc

    def test_json_strategy_selection_is_stable(self, src_file, capsys):
        import json

        argv = ["analyze", src_file, "-i", "x", "-o", "y", "--json",
                "--strategy", "preaccumulate"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)["strategy"]
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)["strategy"]
        assert first == second  # byte-stable selection document
        assert first["requested"] == "preaccumulate"
        assert first["fallback"] == "atomic"
        arrays = {a["array"]: a for loop in first["loops"]
                  for a in loop["arrays"]}
        # x's reads are iteration-stable (c is loop-invariant), so
        # preaccumulate applies; the overwritten y falls back with the
        # rejection reason recorded.
        assert arrays["x"]["strategy"] == "preaccumulate"
        assert arrays["y"]["strategy"] == "atomic"
        assert arrays["y"]["reason"]

    def test_plain_output_lists_selection(self, src_file, capsys):
        assert main(["analyze", src_file, "-i", "x", "-o", "y",
                     "--strategy", "transposed"]) == 0
        out = capsys.readouterr().out
        assert "strategy transposed (fallback atomic):" in out
        assert "-> atomic" in out

    def test_formad_strategy_keeps_proven_arrays_shared(self, src_file,
                                                        capsys):
        import json

        assert main(["analyze", src_file, "-i", "x", "-o", "y", "--json",
                     "--strategy", "formad"]) == 0
        doc = json.loads(capsys.readouterr().out)["strategy"]
        arrays = {a["array"]: a for loop in doc["loops"]
                  for a in loop["arrays"]}
        assert arrays["x"]["strategy"] == "shared"


class TestSurface:
    def test_analyze_options_and_subcommands_are_pinned(self, src_file):
        """The CLI surface is exactly this; retired flags and the
        retired ``serve`` and ``campaign`` subcommands are argparse
        errors (exit 2)."""
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == {
            "analyze", "cache", "differentiate", "tangent", "experiments",
            "audit", "corpus", "explain", "profile"}
        analyze = subparsers.choices["analyze"]
        assert [tuple(a.option_strings) for a in analyze._actions
                if a.option_strings] == [
            ("-h", "--help"), ("--log-level",), ("-i", "--independents"),
            ("-o", "--dependents"), ("--head",), ("--jobs",),
            ("--cache-dir",), ("--trace",), ("--progress",), ("--json",),
            ("--deadline",), ("--question-timeout",), ("--escalate",),
            ("--kill-timeout",), ("--strict",), ("--strategy",),
            ("--fallback",)]
        experiments = subparsers.choices["experiments"]
        assert [tuple(a.option_strings) for a in experiments._actions
                if a.option_strings] == [
            ("-h", "--help"), ("--log-level",), ("--trace",),
            ("--deadline",)]
        audit = subparsers.choices["audit"]
        assert [tuple(a.option_strings) for a in audit._actions
                if a.option_strings] == [
            ("-h", "--help"), ("--log-level",), ("--seed",), ("--count",),
            ("--chaos",), ("--jobs",), ("--journal",), ("--report",),
            ("--corpus",), ("--case-timeout",), ("--question-timeout",),
            ("--kill-timeout",), ("--deadline",), ("--trace",),
            ("--progress",)]

        base = ["analyze", src_file, "-i", "x", "-o", "y"]
        for argv in ([*base, "--isolate"], [*base, "--shard-unit", "loop"],
                     [*base, "--journal", "j"], [*base, "--resume"],
                     [*base, "--connect", "a"], ["serve"],
                     [*base, "--backend", "process"],
                     [*base, "--cache-dir", "d", "--cache-max-bytes", "1"],
                     ["experiments", "--jobs", "2"],
                     ["experiments", "--backend", "process"],
                     ["campaign", "--count", "1"],
                     ["audit", "--count", "1", "--resume"],
                     ["audit", "--count", "1", "--minimize"],
                     ["audit", "--count", "1", "--no-minimize"],
                     ["audit", "--count", "1", "--flake-cap", "1"],
                     ["audit", "--count", "1", "--retry-cap", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_experiments_module_is_the_cli_command(self, tmp_path):
        """``python -m repro.experiments`` parses with the ``repro
        experiments`` parser, so the two entry points cannot drift."""
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.experiments", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=60)

        helped = run("--help")
        assert helped.returncode == 0, helped.stderr
        assert "--trace" in helped.stdout and "--deadline" in helped.stdout
        rejected = run("--jobs", "2")
        assert rejected.returncode == 2
        assert "unrecognized arguments: --jobs" in rejected.stderr
        assert not (tmp_path / "EXPERIMENTS.md").exists()
