"""The cross-run verdict cache: soundness rules and warm-replay identity.

What must hold (docs/SCALING.md, "The verdict cache"):

* only decided (SAT/UNSAT) questions are ever stored — the rejection
  of UNKNOWN is centralized in ``store_question`` so no call site can
  leak one in;
* only *clean* loops are stored wholesale, and degraded safeguard
  records are refused by ``store_loop`` itself;
* a cache-warm engine run reproduces the cold run's verdicts and
  deterministic counters exactly (byte-identity of ``analyze --json``
  rests on this);
* the cache file is keyed on the invocation fingerprint: foreign or
  damaged files are ignored and abandoned, and different engine flags
  never share entries;
* ``readonly`` mode (serve workers) never writes;
* it is the crash-recovery store: a rerun on the same store recovers
  loops that timed out or never finished;
* ``repro cache evict --max-bytes`` evicts least-recently-used
  fingerprint files of a store that ``analyze --cache-dir`` filled.
"""

import os
import time

from repro.analysis.activity import ActivityAnalysis
from repro.audit.campaign import AUDIT_SCHEMA
from repro.formad import FormADEngine
from repro.ir import parse_program
from repro.resilience.cache import CACHE_SCHEMA, VerdictCache
from repro.resilience.journal import (JournalWriter, _decode_line,
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

#: Deterministic per-loop counters that must survive a warm replay.
COUNTERS = (
    "consistency_checks", "exploitation_checks", "memo_hits",
    "model_size", "unique_exprs", "skipped_pairs",
    "solver_sat", "solver_unsat", "solver_unknown",
)


def _engine(proc, **kwargs):
    activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
    return FormADEngine(proc, activity, **kwargs)


def _fingerprint(engine):
    return journal_fingerprint(TWO_LOOPS, "two", ["x"], ["y", "z"],
                               engine.fingerprint_flags())


class TestStoreRules:
    def test_question_round_trip_across_instances(self, tmp_path):
        cache = VerdictCache(str(tmp_path), "fp")
        cache.store_question("0:i", "y", "[root]", "q1", "unsat")
        cache.store_question("0:i", "y", "[root]", "q2", "sat",
                             witness={"i": 3})
        assert cache.question_stores == 2
        cache.close()

        again = VerdictCache(str(tmp_path), "fp")
        assert again.settled_questions == 2
        assert again.question("0:i", "[root]", "q1") == ("unsat", None)
        assert again.question("0:i", "[root]", "q2") == ("sat", {"i": 3})
        assert again.question_hits == 2
        assert again.question("0:i", "[other]", "q1") is None
        assert again.question("1:j", "[root]", "q1") is None
        again.close()

    def test_unknown_is_never_stored(self, tmp_path):
        cache = VerdictCache(str(tmp_path), "fp")
        cache.store_question("0:i", "y", "[root]", "q", "unknown")
        cache.store_question("0:i", "y", "[root]", "q", "timeout")
        assert cache.question_stores == 0
        assert cache.question("0:i", "[root]", "q") is None
        cache.close()
        _, records, _ = read_journal(cache.path)
        assert records == []

    def test_duplicate_question_store_is_deduped(self, tmp_path):
        cache = VerdictCache(str(tmp_path), "fp")
        cache.store_question("0:i", "y", "[root]", "q", "unsat")
        cache.store_question("0:i", "y", "[root]", "q", "unsat")
        assert cache.question_stores == 1
        cache.close()
        _, records, _ = read_journal(cache.path)
        assert len(records) == 1

    def test_degraded_loop_is_refused(self, tmp_path):
        cache = VerdictCache(str(tmp_path), "fp")
        cache.store_loop("0:i", {"degraded": True, "stats": {}}, [])
        assert cache.loop_stores == 0
        assert cache.loop_done("0:i") is None
        cache.close()

    def test_loop_round_trip_across_instances(self, tmp_path):
        cache = VerdictCache(str(tmp_path), "fp")
        cache.store_loop(
            "0:i", {"degraded": False, "stats": {"model_size": 7}},
            [{"array": "y", "safe": True, "safe_writes": []}])
        assert cache.loop_stores == 1
        cache.close()

        again = VerdictCache(str(tmp_path), "fp")
        assert again.settled_loops == 1
        done = again.loop_done("0:i")
        assert done is not None and done["stats"] == {"model_size": 7}
        assert [v["array"] for v in again.verdicts("0:i")] == ["y"]
        again.close()

    def test_readonly_mode_never_writes(self, tmp_path):
        ro = VerdictCache(str(tmp_path), "fp", readonly=True)
        ro.store_question("0:i", "y", "[root]", "q", "unsat")
        ro.store_loop("0:i", {"degraded": False, "stats": {}}, [])
        ro.record("question", loop="0:i", q="q", result="unsat")
        ro.close()
        # readonly mode must not even create the directory or file
        assert not os.path.exists(ro.path)

    def test_missing_file_is_an_empty_readonly_cache(self, tmp_path):
        ro = VerdictCache(str(tmp_path / "nowhere"), "fp", readonly=True)
        assert ro.settled_loops == 0 and ro.settled_questions == 0
        assert ro.question("0:i", "[root]", "q") is None
        ro.close()


class TestFileIdentity:
    def test_foreign_meta_is_ignored_and_abandoned(self, tmp_path):
        # an audit journal (different schema) parked at the path
        path = str(tmp_path / "fp.jsonl")
        writer = JournalWriter(path, meta={"schema": AUDIT_SCHEMA,
                                           "fingerprint": "fp"})
        writer.record("question", loop="0:i", ctx="[root]", q="q",
                      result="unsat")
        writer.close()

        cache = VerdictCache(str(tmp_path), "fp")
        assert cache.settled_questions == 0
        assert cache.question("0:i", "[root]", "q") is None
        cache.close()
        # the foreign file was truncated, not appended to
        meta, records, _ = read_journal(path)
        assert meta["schema"] == CACHE_SCHEMA
        assert records == []

    def test_wrong_fingerprint_file_is_ignored(self, tmp_path):
        stale = VerdictCache(str(tmp_path), "fp-old")
        stale.store_question("0:i", "y", "[root]", "q", "unsat")
        stale.close()
        os.rename(stale.path, os.path.join(str(tmp_path), "fp-new.jsonl"))

        cache = VerdictCache(str(tmp_path), "fp-new")
        assert cache.settled_questions == 0
        assert cache.question("0:i", "[root]", "q") is None
        cache.close()

    def test_flag_changes_produce_disjoint_files(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        plain = _fingerprint(_engine(proc))
        flagged = _fingerprint(_engine(proc, use_question_memo=False))
        assert plain != flagged
        a = VerdictCache(str(tmp_path), plain)
        b = VerdictCache(str(tmp_path), flagged)
        assert a.path != b.path
        a.close()
        b.close()


class TestEngineWarmReplay:
    def test_warm_run_replays_clean_loops_exactly(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = _fingerprint(engine)

        cold_cache = VerdictCache(str(tmp_path), fingerprint)
        engine.attach_run_state(cache=cold_cache)
        baseline = engine.analyze_all()
        cold_cache.close()
        assert cold_cache.loop_stores == 2
        assert all(a.cacheable for a in baseline)

        warm_cache = VerdictCache(str(tmp_path), fingerprint)
        warm = _engine(proc)
        warm.attach_run_state(cache=warm_cache)
        replayed = warm.analyze_all()
        warm_cache.close()

        assert warm_cache.loop_hits == 2
        assert warm_cache.loop_stores == 0  # nothing new to store
        for again, honest in zip(replayed, baseline):
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            assert again.safe_write_expressions \
                == honest.safe_write_expressions
            for name in COUNTERS:
                assert getattr(again.stats, name) \
                    == getattr(honest.stats, name), name

    def test_degraded_analysis_is_not_cached(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = _fingerprint(engine)
        cache = VerdictCache(str(tmp_path), fingerprint)
        engine.attach_run_state(cache=cache)
        loops = list(proc.parallel_loops())
        engine.degraded_analysis(loops[0], "worker crash")
        cache.close()
        assert cache.loop_stores == 0

        again = VerdictCache(str(tmp_path), fingerprint)
        assert again.settled_loops == 0
        again.close()

    def test_missing_loop_done_replays_decided_questions(self, tmp_path):
        proc = parse_program(TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = _fingerprint(engine)
        cold = VerdictCache(str(tmp_path), fingerprint)
        engine.attach_run_state(cache=cold)
        baseline = engine.analyze_all()
        cold.close()

        # drop the second loop's loop_done record (as if the run had
        # been killed before finishing it); its questions survive
        with open(cold.path) as fh:
            lines = fh.read().splitlines(keepends=True)
        kept = [ln for ln in lines
                if (_decode_line(ln) or {}).get("kind") != "loop_done"
                or (_decode_line(ln) or {}).get("loop") != "1:j"]
        assert len(kept) == len(lines) - 1
        with open(cold.path, "w") as fh:
            fh.writelines(kept)

        store = VerdictCache(str(tmp_path), fingerprint)
        assert store.settled_loops == 1
        rerun = _engine(proc, cache=store).analyze_all()
        store.close()

        # loop 0:i replays wholesale; loop 1:j is analyzed again but
        # answers its decided questions from the store, lands on the
        # same verdicts, and is not stored wholesale (its counters are
        # not the cold counters)
        assert store.loop_hits == 1
        assert store.question_hits > 0
        assert rerun[0].cacheable and not rerun[1].cacheable
        assert store.loop_stores == 0
        for again, honest in zip(rerun, baseline):
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}


class TestRecovery:
    def test_rerun_after_question_timeouts_recovers(self, tmp_path):
        """A run whose questions all timed out leaves no settled loop
        behind, so a rerun on the same store without the timeout
        analyzes again and matches a store-less run exactly."""
        proc = parse_program(TWO_LOOPS)["two"]
        plain = _engine(proc).analyze_all()
        fingerprint = _fingerprint(_engine(proc))

        store = VerdictCache(str(tmp_path), fingerprint)
        timed_out = _engine(proc, question_timeout=0.0,
                            cache=store).analyze_all()
        store.close()
        assert sum(a.stats.timed_out_questions for a in timed_out) > 0
        assert not any(a.all_safe for a in timed_out)
        assert store.loop_stores == 0

        store = VerdictCache(str(tmp_path), fingerprint)
        recovered = _engine(proc, cache=store).analyze_all()
        store.close()
        assert store.loop_hits == 0
        assert store.loop_stores == 2
        for again, honest in zip(recovered, plain):
            assert again.stats.timed_out_questions == 0
            assert again.cacheable
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            assert again.stats.queries == honest.stats.queries
            assert again.stats.region_loc == honest.stats.region_loc
            for name in COUNTERS:
                assert getattr(again.stats, name) \
                    == getattr(honest.stats, name), name


def _one_loop(scale: str) -> str:
    return f"""
subroutine one(x, y, n)
  real, intent(in) :: x(1000)
  real, intent(out) :: y(1000)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 2, n
    y(i) = x(i) * {scale}
  end do
end subroutine one
"""


class TestSizeBudget:
    def test_size_budget_evicts_after_the_run(self, tmp_path, capsys):
        """Three analyses of different sources share one store; then
        ``repro cache evict`` with a budget that fits only the two
        newest files evicts exactly the oldest."""
        from repro.cli import main

        store = tmp_path / "store"

        def analyze(name, text, outs):
            src = tmp_path / f"{name}.f90"
            src.write_text(text)
            before = set(os.listdir(store)) if store.exists() else set()
            assert main(["analyze", str(src), "-i", "x", "-o", outs,
                         "--json", "--cache-dir", str(store)]) == 0
            new = [n for n in set(os.listdir(store)) - before
                   if n.endswith(".jsonl")]
            assert len(new) == 1
            return store / new[0]

        oldest = analyze("a", TWO_LOOPS, "y,z")
        now = time.time()
        os.utime(oldest, (now - 200, now - 200))
        middle = analyze("b", _one_loop("2.0"), "y")
        os.utime(middle, (now - 100, now - 100))
        newest = analyze("c", _one_loop("3.0"), "y")
        # The two-loop file outweighs a one-loop file, so the budget
        # "oldest + middle - 1" holds the two newest but not all three.
        budget = oldest.stat().st_size + middle.stat().st_size - 1
        capsys.readouterr()
        assert main(["cache", "evict", "--cache-dir", str(store),
                     "--max-bytes", str(budget)]) == 0
        out = capsys.readouterr().out

        assert not oldest.exists()
        assert middle.exists() and newest.exists()
        assert middle.stat().st_size + newest.stat().st_size <= budget
        assert out.startswith("evicted 1 file(s); store now ")
