"""The crash-safe record codec and recovery from the ``--cache-dir``
store.

The durability story under test: every line checksums independently,
damage (a truncated tail from ``kill -9``, flipped bytes from a bad
disk) drops only the damaged records, the store indexes only settled
knowledge from what survives, and an engine rerun on the store replays
it to reproduce the uninterrupted verdicts and counts.
"""

import json
import os
import zlib

from repro.analysis.activity import ActivityAnalysis
from repro.formad import FormADEngine
from repro.ir import parse_program
from repro.resilience.cache import CACHE_SCHEMA, VerdictCache
from repro.resilience.deadline import Deadline
from repro.resilience.journal import (JournalWriter, _decode_line,
                                      _encode_line, journal_fingerprint,
                                      read_journal)

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
    return {"schema": CACHE_SCHEMA, "fingerprint": fingerprint}


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
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[2] = lines[2].replace('"q":"b"', '"q":"x"', 1)
        with open(path, "w") as fh:
            fh.writelines(lines)
        meta, records, dropped = read_journal(path)
        assert meta is not None
        assert dropped == 1
        assert [r["q"] for r in records] == ["a", "c"]

    def test_fresh_mode_truncates_but_appends(self, tmp_path):
        # the handle is O_APPEND even in fresh mode, so every record
        # lands at the current end of file: a second, unlocked writer
        # (the case reconcile_records repairs) can interleave records
        # with this one but never overwrite them
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


def _store_file(tmp_path, fingerprint="fp"):
    """A raw writer on the store file of *fingerprint*: the records a
    killed run left behind, written without the store's own rules."""
    path = str(tmp_path / f"{fingerprint}.jsonl")
    return JournalWriter(path, meta=_meta(fingerprint))


class TestResumeState:
    """What the store indexes from a recovered file."""

    def test_only_decided_questions_settle(self, tmp_path):
        writer = _store_file(tmp_path)
        writer.record("question", loop="0:i", ctx="[root]", q="a",
                      result="unsat")
        writer.record("question", loop="0:i", ctx="[root]", q="b",
                      result="sat", witness={"i": 3})
        writer.record("question", loop="0:i", ctx="[root]", q="c",
                      result="unknown", reason="timeout")
        writer.close()
        state = VerdictCache(str(tmp_path), "fp", readonly=True)
        assert state.settled_questions == 2
        assert state.question("0:i", "[root]", "a") == ("unsat", None)
        assert state.question("0:i", "[root]", "b") == ("sat", {"i": 3})
        assert state.question("0:i", "[root]", "c") is None
        assert state.question("0:i", "[other]", "a") is None

    def test_loop_indexing(self, tmp_path):
        writer = _store_file(tmp_path)
        writer.record("verdict", loop="0:i", array="y", safe=True)
        writer.record("loop_done", loop="0:i", stats={}, degraded=False)
        writer.close()
        state = VerdictCache(str(tmp_path), "fp", readonly=True)
        assert state.settled_loops == 1
        assert state.loop_done("0:i")["kind"] == "loop_done"
        assert state.loop_done("1:j") is None
        assert [v["array"] for v in state.verdicts("0:i")] == ["y"]

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


def _stored_run(proc, tmp_path):
    engine = _engine(proc)
    fingerprint = journal_fingerprint(
        TWO_LOOPS, "two", ["x"], ["y", "z"], engine.fingerprint_flags())
    store = VerdictCache(str(tmp_path), fingerprint)
    engine.attach_run_state(cache=store)
    analyses = engine.analyze_all()
    store.close()
    return analyses, fingerprint


class TestEngineResume:
    def test_settled_loops_replay_without_reanalysis(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        baseline, fingerprint = _stored_run(proc, tmp_path)

        # an already-expired run deadline would degrade any loop that
        # had to be analyzed: settled loops never reach the solver
        store = VerdictCache(str(tmp_path), fingerprint)
        assert store.settled_loops == 2
        rerun = _engine(proc, deadline=Deadline(0.0), cache=store)
        replayed = rerun.analyze_all()
        store.close()

        assert store.loop_hits == 2
        assert len(replayed) == len(baseline) == 2
        for again, honest in zip(replayed, baseline):
            assert not again.degraded
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            assert again.stats.exploitation_checks \
                == honest.stats.exploitation_checks

    def test_degraded_loop_done_is_not_replayed(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        engine = _engine(proc)
        loops = list(proc.parallel_loops())
        degraded = engine.degraded_analysis(loops[0], "worker crash")
        # store_loop refuses degraded records, so plant one directly
        writer = _store_file(tmp_path)
        writer.record("loop_done", loop="0:i", stats={},
                      safe_writes=degraded.safe_write_expressions,
                      offending=[], degraded=True)
        writer.close()

        store = VerdictCache(str(tmp_path), "fp", readonly=True)
        done = store.loop_done("0:i")
        assert done is not None and done["degraded"]
        fresh = _engine(proc, cache=store).analyze_all()
        # the degraded record is a fallback, not settled knowledge:
        # the rerun re-analyzes and proves the loop honestly
        assert store.loop_hits == 0
        assert not fresh[0].degraded
        assert fresh[0].safe_arrays() == {"y"}
