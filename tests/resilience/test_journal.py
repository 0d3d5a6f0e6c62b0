"""The crash-safe verdict journal: recovery, rotation, engine resume.

The durability story under test: every line checksums independently,
damage (a truncated tail from ``kill -9``, flipped bytes from a bad
disk) drops only the damaged records, and a resumed analysis replays
the surviving SAT/UNSAT answers to reproduce the uninterrupted
verdicts and counts.
"""

import json
import os
import zlib

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.formad import FormADEngine
from repro.ir import parse_program
from repro.resilience.journal import (JOURNAL_SCHEMA, JournalError,
                                      JournalWriter, ResumeState,
                                      _decode_line, _encode_line,
                                      journal_fingerprint, read_journal)

TWO_LOOPS = """
subroutine two(x, y, z, n)
  real, intent(in) :: x(1000)
  real, intent(out) :: y(1000)
  real, intent(out) :: z(1000)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 2, n
    y(i) = x(i) + x(i - 1)
  end do
  !$omp parallel do
  do j = 2, n
    z(j) = x(j) * x(j - 1)
  end do
end subroutine two
"""


def _meta(fingerprint="fp"):
    return {"schema": JOURNAL_SCHEMA, "fingerprint": fingerprint}


class TestLineCodec:
    def test_round_trip(self):
        record = {"kind": "verdict", "loop": "0:i", "array": "y",
                  "safe": True}
        line = _encode_line(record)
        assert line.endswith("\n")
        assert _decode_line(line) == record

    def test_flipped_byte_fails_checksum(self):
        line = _encode_line({"kind": "question", "loop": "0:i",
                             "result": "unsat"})
        # flip a byte inside the payload, keeping valid JSON
        damaged = line.replace('"unsat"', '"unsat"'.replace("t", "x"))
        assert damaged != line
        assert _decode_line(damaged) is None

    def test_garbage_lines(self):
        assert _decode_line("not json") is None
        assert _decode_line('{"c": 0}') is None
        assert _decode_line(json.dumps({"c": "nope", "r": {}})) is None

    def test_checksum_covers_canonical_form(self):
        record = {"b": 1, "a": 2}
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        wrapper = json.loads(_encode_line(record))
        assert wrapper["c"] == zlib.crc32(payload.encode())


class TestReadJournal:
    def test_writer_read_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, meta=_meta())
        writer.record("question", loop="0:i", q="a", result="unsat")
        writer.record("verdict", loop="0:i", array="y", safe=True)
        writer.close()
        meta, records, dropped = read_journal(path)
        assert dropped == 0
        assert meta["kind"] == "meta"
        assert meta["fingerprint"] == "fp"
        assert [r["kind"] for r in records] == ["question", "verdict"]

    def test_truncated_tail_drops_one_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, meta=_meta())
        writer.record("question", loop="0:i", q="a", result="unsat")
        writer.close()
        intact = os.path.getsize(path)
        # simulate kill -9 mid-write: half a record, no newline
        with open(path, "a") as fh:
            fh.write(_encode_line({"kind": "question", "loop": "0:i",
                                   "q": "b", "result": "sat"})[:-9])
        meta, records, dropped = read_journal(path)
        assert meta is not None
        assert len(records) == 1 and dropped == 1
        # append mode truncates the half-line so the file stays aligned
        writer = JournalWriter(path, append=True)
        assert os.path.getsize(path) == intact
        writer.record("question", loop="0:i", q="c", result="unsat")
        writer.close()
        _, records, dropped = read_journal(path)
        assert dropped == 0
        assert [r["q"] for r in records] == ["a", "c"]

    def test_flipped_byte_mid_file_drops_only_that_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, meta=_meta())
        for q in ("a", "b", "c"):
            writer.record("question", loop="0:i", q=q, result="unsat")
        writer.close()
        lines = open(path).read().splitlines(keepends=True)
        lines[2] = lines[2].replace('"q":"b"', '"q":"x"', 1)
        with open(path, "w") as fh:
            fh.writelines(lines)
        meta, records, dropped = read_journal(path)
        assert meta is not None
        assert dropped == 1
        assert [r["q"] for r in records] == ["a", "c"]

    def test_fresh_mode_truncates_but_appends(self, tmp_path):
        # the handle itself must be O_APPEND even in fresh mode so a
        # worker subprocess can interleave its own appends
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, meta=_meta())
        with open(path, "a") as other:
            other.write(_encode_line({"kind": "question", "loop": "1:j",
                                      "q": "w", "result": "sat"}))
        writer.record("verdict", loop="0:i", array="y", safe=True)
        writer.close()
        _, records, dropped = read_journal(path)
        assert dropped == 0
        assert [r["kind"] for r in records] == ["question", "verdict"]


class TestRotate:
    def test_rotation_compacts_settled_loops(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, meta=_meta())
        writer.record("question", loop="0:i", q="a", result="unsat")
        writer.record("verdict", loop="0:i", array="y", safe=True)
        writer.record("loop_done", loop="0:i", stats={}, safe_writes=[],
                      offending=[], degraded=False)
        writer.record("question", loop="1:j", q="b", result="sat",
                      witness={"i": 1})
        writer.rotate()
        # the writer still works after rotation
        writer.record("question", loop="1:j", q="c", result="unsat")
        writer.close()
        meta, records, dropped = read_journal(path)
        assert meta is not None and dropped == 0
        kinds = [(r["kind"], r["loop"]) for r in records]
        assert ("question", "0:i") not in kinds       # compacted
        assert ("verdict", "0:i") in kinds
        assert ("loop_done", "0:i") in kinds
        assert kinds.count(("question", "1:j")) == 2  # unsettled: kept


class TestAppendingContract:
    """``appending`` is a *required* attribute of anything passed as a
    journal: the engine decides whether to re-emit resume-settled loops
    by reading it directly, without a duck-typed ``getattr`` default
    that would silently pick a wrong behavior for a new writer kind."""

    def test_journal_like_without_appending_is_rejected(self, tmp_path):
        class Recorder:  # record()/close() but no `appending`
            def __init__(self):
                self.rows = []

            def record(self, kind, **fields):
                self.rows.append((kind, fields))

            def close(self):
                pass

        proc = parse_program(TWO_LOOPS)["two"]
        path = str(tmp_path / "j.jsonl")
        _journaled_run(proc, path)
        state = ResumeState.load(path)
        engine = _engine(proc, resume=state)
        engine.attach_run_state(journal=Recorder())
        with pytest.raises(AttributeError, match="appending"):
            engine.analyze_all()

    def test_resume_into_fresh_journal_reemits_settled_loops(self, tmp_path):
        """Resuming from journal A while writing journal B afresh must
        copy A's settled verdicts into B — otherwise B claims to
        describe the run but is missing its loops."""
        proc = parse_program(TWO_LOOPS)["two"]
        old = str(tmp_path / "old.jsonl")
        new = str(tmp_path / "new.jsonl")
        baseline, fingerprint = _journaled_run(proc, old)

        state = ResumeState.load(old)
        writer = JournalWriter(new, meta=_meta(fingerprint))
        assert not writer.appending
        resumed = _engine(proc, resume=state, journal=writer).analyze_all()
        writer.close()
        assert all(a.resumed for a in resumed)

        fresh_state = ResumeState.load(new)
        assert fresh_state.settled_loops == 2
        for key in ("0:i", "1:j"):
            assert fresh_state.loop_done(key) is not None
        # the new journal resumes exactly like the old one
        again = _engine(proc, resume=fresh_state).analyze_all()
        for a, b in zip(again, baseline):
            assert a.resumed
            assert {n: v.safe for n, v in a.verdicts.items()} \
                == {n: v.safe for n, v in b.verdicts.items()}

    def test_appending_journal_does_not_duplicate_settled_loops(self, tmp_path):
        """Resuming *into the same journal* (append mode) must not
        re-emit: the records are already there."""
        proc = parse_program(TWO_LOOPS)["two"]
        path = str(tmp_path / "j.jsonl")
        _journaled_run(proc, path)
        before = len(read_journal(path)[1])

        state = ResumeState.load(path)
        writer = JournalWriter(path, append=True)
        assert writer.appending
        resumed = _engine(proc, resume=state, journal=writer).analyze_all()
        writer.close()
        assert all(a.resumed for a in resumed)
        assert len(read_journal(path)[1]) == before


class TestResumeState:
    def test_only_decided_questions_settle(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, meta=_meta())
        writer.record("question", loop="0:i", ctx="[root]", q="a",
                      result="unsat")
        writer.record("question", loop="0:i", ctx="[root]", q="b",
                      result="sat", witness={"i": 3})
        writer.record("question", loop="0:i", ctx="[root]", q="c",
                      result="unknown", reason="timeout")
        writer.close()
        state = ResumeState.load(path)
        assert state.settled_questions == 2
        assert state.question("0:i", "[root]", "a") == ("unsat", None)
        assert state.question("0:i", "[root]", "b") == ("sat", {"i": 3})
        assert state.question("0:i", "[root]", "c") is None
        assert state.question("0:i", "[other]", "a") is None

    def test_loop_indexing(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, meta=_meta())
        writer.record("verdict", loop="0:i", array="y", safe=True)
        writer.record("loop_done", loop="0:i", stats={}, degraded=False)
        writer.close()
        state = ResumeState.load(path)
        assert state.settled_loops == 1
        assert state.loop_done("0:i")["kind"] == "loop_done"
        assert state.loop_done("1:j") is None
        assert [v["array"] for v in state.verdicts("0:i")] == ["y"]

    def test_fingerprint_refusal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        JournalWriter(path, meta=_meta("good")).close()
        state = ResumeState.load(path)
        state.check_fingerprint("good")  # matching: no raise
        with pytest.raises(JournalError, match="fingerprint"):
            state.check_fingerprint("other")
        with pytest.raises(JournalError, match="meta"):
            ResumeState(None, []).check_fingerprint("good")
        bad_schema = ResumeState({"kind": "meta", "schema": "v0",
                                  "fingerprint": "good"}, [])
        with pytest.raises(JournalError, match="schema"):
            bad_schema.check_fingerprint("good")

    def test_fingerprint_is_sensitive_to_inputs(self):
        base = journal_fingerprint("src", "two", ["x"], ["y"], {"f": 1})
        assert base == journal_fingerprint("src", "two", ["x"], ["y"],
                                           {"f": 1})
        assert base != journal_fingerprint("src2", "two", ["x"], ["y"],
                                           {"f": 1})
        assert base != journal_fingerprint("src", "two", ["x"], ["z"],
                                           {"f": 1})
        assert base != journal_fingerprint("src", "two", ["x"], ["y"],
                                           {"f": 2})


def _engine(proc, **kwargs):
    activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
    return FormADEngine(proc, activity, **kwargs)


def _journaled_run(proc, path):
    engine = _engine(proc)
    fingerprint = journal_fingerprint(
        TWO_LOOPS, "two", ["x"], ["y", "z"], engine.fingerprint_flags())
    writer = JournalWriter(path, meta=_meta(fingerprint))
    engine.attach_run_state(journal=writer)
    analyses = engine.analyze_all()
    writer.close()
    return analyses, fingerprint


class TestEngineResume:
    def test_settled_loops_replay_without_reanalysis(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        path = str(tmp_path / "j.jsonl")
        baseline, fingerprint = _journaled_run(proc, path)

        state = ResumeState.load(path)
        state.check_fingerprint(fingerprint)
        assert state.settled_loops == 2
        resumed = _engine(proc, resume=state).analyze_all()

        assert len(resumed) == len(baseline) == 2
        for again, honest in zip(resumed, baseline):
            assert again.resumed
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            assert again.stats.exploitation_checks \
                == honest.stats.exploitation_checks

    def test_damaged_journal_falls_back_to_question_replay(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        path = str(tmp_path / "j.jsonl")
        baseline, fingerprint = _journaled_run(proc, path)

        # destroy the second loop's loop_done record (as if the run had
        # been killed before finishing it); its questions survive
        lines = open(path).read().splitlines(keepends=True)
        kept = [ln for ln in lines
                if not (_decode_line(ln) or {}).get("kind") == "loop_done"
                or (_decode_line(ln) or {}).get("loop") != "1:j"]
        assert len(kept) == len(lines) - 1
        with open(path, "w") as fh:
            fh.writelines(kept)

        state = ResumeState.load(path)
        state.check_fingerprint(fingerprint)
        assert state.settled_loops == 1
        resumed = _engine(proc, resume=state).analyze_all()

        assert resumed[0].resumed
        assert not resumed[1].resumed
        # the re-analyzed loop replays its settled answers instead of
        # re-asking the solver, and lands on identical verdicts
        assert resumed[1].stats.resumed_questions > 0
        for again, honest in zip(resumed, baseline):
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}

    def test_degraded_loop_done_is_not_replayed(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        path = str(tmp_path / "j.jsonl")
        engine = _engine(proc)
        loops = list(proc.parallel_loops())
        writer = JournalWriter(path, meta=_meta("fp"))
        engine.attach_run_state(journal=writer)
        engine.degraded_analysis(loops[0], "worker crash")
        writer.close()

        state = ResumeState.load(path)
        done = state.loop_done("0:i")
        assert done is not None and done["degraded"]
        fresh = _engine(proc, resume=state).analyze_all()
        # the degraded record is a fallback, not settled knowledge:
        # the resumed run re-analyzes and proves the loop honestly
        assert not fresh[0].resumed
        assert not fresh[0].degraded
        assert fresh[0].safe_arrays() == {"y"}
