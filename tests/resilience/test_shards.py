"""The multiprocess shard scheduler behind ``analyze --jobs``.

The contract under test (docs/SCALING.md):

* sharded analyses are indistinguishable from inline ones — same
  verdicts, same safe-write inventory, same deterministic counters;
* worker faults (exit, exception, hang) degrade only the loop being
  held, the pool respawns a worker for the next shard, and Table-1
  accounting stays fault-independent;
* a :class:`PrimalRaceError` in a worker re-raises in the parent like
  the inline analysis would, and so does any exception a feeder thread
  raises (never a ``None`` slot);
* loops the parent can replay from the ``--cache-dir`` store never
  reach a worker at all;
* the parent is the single store writer: a sharded run's store replays
  exactly like an inline run's, including after the whole run is
  SIGKILLed mid-flight;
* without ``--jobs`` no pool is started at all;
* a request is timed from send to reply, so a worker's spawn never
  counts as a loop's time or as the worker's busy time.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.cli import main
from repro.formad import FormADEngine, PrimalRaceError
from repro.ir import parse_program
from repro.obs.metrics import TIMER_KEYS
from repro.obs.tracer import CollectingTracer, load_trace
from repro.resilience.cache import VerdictCache
from repro.resilience.journal import journal_fingerprint, read_journal
from repro.resilience.shards import (ShardConfig, WorkerClient, WorkerPool,
                                     analyze_sharded)

SAFE_TWO_LOOPS = """
subroutine two(x, y, z, n)
  real, intent(in) :: x(1000)
  real, intent(out) :: y(1000)
  real, intent(out) :: z(1000)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 1, n
    y(i) = x(i) * 2.0
  end do
  !$omp parallel do
  do j = 1, n
    z(j) = x(j) + 1.0
  end do
end subroutine two
"""

RACY = """
subroutine racy(x, y, n)
  integer, intent(in) :: n
  real, intent(in) :: x(10)
  real, intent(inout) :: y(10)
  !$omp parallel do
  do i = 1, n
    y(1) = x(i)
  end do
end subroutine racy
"""

COUNTERS = ("consistency_checks", "exploitation_checks", "memo_hits",
            "model_size", "unique_exprs", "skipped_pairs", "solver_sat",
            "solver_unsat", "solver_unknown")


def _engine(proc, **kwargs):
    activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
    return FormADEngine(proc, activity, **kwargs)


def _sharded(proc, *, engine=None, cache_dir=None, fingerprint=None,
             **config_kwargs):
    engine = engine or _engine(proc)
    return analyze_sharded(engine, SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
                           config=ShardConfig(**config_kwargs),
                           cache_dir=cache_dir, fingerprint=fingerprint)


class TestShardIdentity:
    def test_process_backend_matches_inline(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        sharded, outcomes = _sharded(proc, jobs=2)

        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert len(sharded) == len(inline) == 2
        for remote, local in zip(sharded, inline):
            assert not remote.degraded
            assert remote.cacheable
            assert {n: v.safe for n, v in remote.verdicts.items()} \
                == {n: v.safe for n, v in local.verdicts.items()}
            assert remote.safe_write_expressions \
                == local.safe_write_expressions
            for name in COUNTERS:
                assert getattr(remote.stats, name) \
                    == getattr(local.stats, name), name

    def test_single_worker_drains_the_whole_queue(self):
        # work-stealing degenerate case: one worker, two shards
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        sharded, outcomes = _sharded(proc, jobs=1)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert not any(a.degraded for a in sharded)


class TestFaultContainment:
    def test_crash_degrades_one_loop_and_respawns_for_the_next(
            self, monkeypatch):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        # jobs=1 forces both shards through the same feeder: the loop
        # after the crash must be served by a respawned worker
        monkeypatch.setenv("REPRO_WORKER_FAULT", "exit:3@0:i")
        sharded, outcomes = _sharded(proc, jobs=1)

        assert [o.status for o in outcomes] == ["crash", "ok"]
        assert "status 3" in outcomes[0].detail
        degraded, healthy = sharded
        assert degraded.degraded
        assert degraded.safe_arrays() == set()
        # fault-independent accounting: the degraded loop still counts
        # every question it would have asked
        assert degraded.stats.exploitation_checks \
            == inline[0].stats.exploitation_checks
        assert degraded.stats.exploitation_checks > 0
        assert not healthy.degraded
        assert {n: v.safe for n, v in healthy.verdicts.items()} \
            == {n: v.safe for n, v in inline[1].verdicts.items()}

    def test_worker_exception_is_contained(self, monkeypatch):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise@1:j")
        sharded, outcomes = _sharded(proc, jobs=2)
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "crash"
        assert "injected worker fault" in outcomes[1].detail
        assert not sharded[0].degraded
        assert sharded[1].degraded

    def test_hung_worker_is_killed_and_degraded(self, monkeypatch):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        monkeypatch.setenv("REPRO_WORKER_FAULT", "hang:30@0:i")
        start = time.monotonic()
        sharded, outcomes = _sharded(proc, jobs=1, kill_timeout=1.5)
        assert time.monotonic() - start < 20.0
        assert outcomes[0].status == "timeout"
        assert "kill timeout" in outcomes[0].detail
        assert sharded[0].degraded
        assert outcomes[1].status == "ok"
        assert not sharded[1].degraded

    def test_unusable_reply_degrades_its_loop(self, monkeypatch):
        # A reply without its serialized analysis fails to apply while
        # the apply lock is held; its loop must still degrade exactly
        # like a crashed worker's. The worker that answered garbage is
        # dropped, so the next shard runs on a fresh one.
        real = WorkerClient.request

        def lossy(self, request, timeout):
            reply = real(self, request, timeout)
            if request.get("loop_key") == "0:i":
                reply.pop("analysis", None)
            return reply

        monkeypatch.setattr(WorkerClient, "request", lossy)
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        tracer = CollectingTracer()
        done = []
        runner = threading.Thread(target=lambda: done.append(_sharded(
            proc, engine=_engine(proc, tracer=tracer), jobs=1)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert done, "the scheduler hung applying an unusable reply"
        tracer.close()
        sharded, outcomes = done[0]
        assert [o.status for o in outcomes] == ["crash", "ok"]
        assert "missing its loop analysis" in outcomes[0].detail
        assert sharded[0].degraded
        assert sharded[0].safe_arrays() == set()
        assert sharded[0].stats.exploitation_checks \
            == inline[0].stats.exploitation_checks
        assert not sharded[1].degraded
        events = tracer.events
        assert [(e["loop"], e["status"]) for e in events
                if e["type"] == "worker"] == [("0:i", "crash"), ("1:j", "ok")]
        assert [(e["loop"], e["phase"]) for e in events
                if e["type"] == "degraded"] == [("i", "worker")]
        counters = events[-1]["counters"]
        assert counters.get("scheduler.respawns") == 1
        # its events did arrive (folded as partial): none were lost
        assert "telemetry.dropped_events" not in counters

    def test_primal_race_reraises_in_the_parent(self):
        proc = parse_program(RACY)["racy"]
        activity = ActivityAnalysis(proc, ["x"], ["y"])
        engine = FormADEngine(proc, activity)
        with pytest.raises(PrimalRaceError):
            analyze_sharded(engine, RACY, "racy", ["x"], ["y"],
                            config=ShardConfig(jobs=1))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_feeder_exception_reaches_the_caller(self, jobs, monkeypatch):
        # Anything but WorkerGone escaping a feeder thread (here: the
        # spawn itself) is the run's own fault, not a worker's: it must
        # surface in the caller, never as a None slot or a false "ok".
        def broken(self, k, *, tracer=None):
            raise ValueError("feeder broke")

        monkeypatch.setattr(WorkerPool, "client", broken)
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        with pytest.raises(ValueError, match="feeder broke"):
            _sharded(proc, jobs=jobs)


MULTILOOP = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, os.pardir, "examples", "multiloop.f90")


class TestRequestTiming:
    def test_worker_time_excludes_the_spawn(self, tmp_path, capsys,
                                            monkeypatch):
        # A request is timed from send to reply: the spawn and init of
        # the worker that serves it never count as the loop's time, nor
        # as the worker's busy time.
        monkeypatch.delenv("REPRO_WORKER_FAULT", raising=False)
        trace = tmp_path / "t.jsonl"
        assert main(["analyze", MULTILOOP, "-i", "x", "-o", "a,b,c,d,e,f",
                     "--jobs", "2", "--trace", str(trace)]) == 0
        capsys.readouterr()
        events = load_trace(str(trace))
        begins = {e["id"]: e["attrs"] for e in events
                  if e["type"] == "span_begin"
                  and e["name"] == "shard.request"}
        span_s = {}
        worker_span_s = {}
        for event in events:
            if event["type"] == "span_end" and event["id"] in begins:
                attrs = begins[event["id"]]
                span_s[attrs["loop"]] = event["dur_s"]
                worker_span_s[attrs["worker_id"]] = \
                    worker_span_s.get(attrs["worker_id"], 0.0) \
                    + event["dur_s"]
        served = [e for e in events if e["type"] == "worker"]
        assert len(served) == len(span_s) == 6
        assert {e["thread"] for e in served} <= {"shard-0", "shard-1"}
        for event in served:
            assert event["dur_s"] <= span_s[event["loop"]], event
        counters = events[-1]["counters"]
        for wid, total in worker_span_s.items():
            assert counters[f"worker.{wid}.busy_seconds"] <= total, wid


class TestWorkerPipes:
    @pytest.mark.parametrize("end", ["kill", "shutdown"])
    def test_reaped_worker_leaves_no_open_pipe(self, end):
        # A dropped or shut-down worker closes its three pipes itself
        # instead of leaving them to the garbage collector.
        client = WorkerClient()
        getattr(client, end)()
        proc = client._proc
        assert proc.returncode is not None
        assert [pipe.closed for pipe in (proc.stdin, proc.stdout,
                                         proc.stderr)] == [True] * 3


class TestParentalReplay:
    def test_cache_warm_loops_never_reach_a_worker(self, tmp_path,
                                                   monkeypatch):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = journal_fingerprint(
            SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
            engine.fingerprint_flags())
        cache_dir = str(tmp_path / "cache")

        cold_cache = VerdictCache(cache_dir, fingerprint)
        engine.attach_run_state(cache=cold_cache)
        cold, cold_outcomes = _sharded(
            proc, engine=engine, cache_dir=cache_dir,
            fingerprint=fingerprint, jobs=2)
        cold_cache.close()
        assert [o.status for o in cold_outcomes] == ["ok", "ok"]
        assert cold_cache.loop_stores == 2

        warm_cache = VerdictCache(cache_dir, fingerprint)
        warm_engine = _engine(proc)
        warm_engine.attach_run_state(cache=warm_cache)
        # a crashing fault is armed for every loop: if any shard were
        # dispatched, its outcome would be "crash", not "cached"
        monkeypatch.setenv("REPRO_WORKER_FAULT", "exit:3")
        warm, warm_outcomes = _sharded(
            proc, engine=warm_engine, cache_dir=cache_dir,
            fingerprint=fingerprint)
        warm_cache.close()
        assert [o.status for o in warm_outcomes] == ["cached", "cached"]
        assert warm_cache.loop_hits == 2
        for again, honest in zip(warm, cold):
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            for name in COUNTERS:
                assert getattr(again.stats, name) \
                    == getattr(honest.stats, name), name

    def test_sharded_journal_resumes_like_an_inline_one(self, tmp_path):
        """The store file a sharded run's parent writes replays inline
        exactly like the one an inline run writes."""
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = journal_fingerprint(
            SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
            engine.fingerprint_flags())
        cache_dir = str(tmp_path / "cache")
        cache = VerdictCache(cache_dir, fingerprint)
        engine.attach_run_state(cache=cache)
        sharded, outcomes = _sharded(
            proc, engine=engine, cache_dir=cache_dir,
            fingerprint=fingerprint, jobs=2)
        cache.close()
        assert [o.status for o in outcomes] == ["ok", "ok"]
        # the decided answers the workers' read-only stores received
        # reach the parent's store, as an inline run's answers do
        inline_cold = VerdictCache(str(tmp_path / "inline"), fingerprint)
        _engine(proc, cache=inline_cold).analyze_all()
        inline_cold.close()
        assert cache.question_stores == inline_cold.question_stores > 0

        replay_cache = VerdictCache(cache_dir, fingerprint)
        replayed = _engine(proc, cache=replay_cache).analyze_all()
        replay_cache.close()
        assert replay_cache.loop_hits == 2
        for again, honest in zip(replayed, sharded):
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            for name in COUNTERS:
                assert getattr(again.stats, name) \
                    == getattr(honest.stats, name), name


def _cli(tmp_path, src_path, *extra, env=None, check=True):
    cmd = [sys.executable, "-m", "repro", "analyze", str(src_path),
           "-i", "x", "-o", "y,z", "--json", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=str(tmp_path))
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _zero_timers(doc):
    if isinstance(doc, dict):
        return {k: 0.0 if k in TIMER_KEYS else _zero_timers(v)
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [_zero_timers(v) for v in doc]
    return doc


def _env():
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src_root)
    env.pop("REPRO_WORKER_FAULT", None)
    return env


POOL = ("--jobs", "1")


def _loop_settled(store, key):
    """Whether a store file under *store* holds *key*'s loop_done."""
    return any(record.get("kind") == "loop_done"
               and record.get("loop") == key
               for path in store.glob("*.jsonl")
               for record in read_journal(str(path))[1])


class TestKillParentResume:
    """SIGKILL the whole process group mid-run; rerunning the same
    ``--cache-dir`` command must reproduce the uninterrupted run."""

    @pytest.mark.slow
    def test_sigkill_then_resume_reproduces_counts(self, tmp_path):
        src = tmp_path / "two.f"
        src.write_text(SAFE_TWO_LOOPS)
        env = _env()

        baseline = _cli(tmp_path, src, *POOL, env=env)
        base_doc = json.loads(baseline.stdout)

        # interrupted run: the one pool worker settles loop 0:i, then
        # hangs on 1:j; the parent would wait out the generous kill
        # timeout, but we SIGKILL the whole group (parent and worker)
        # as soon as loop 0:i's verdicts are durable in the store
        store = tmp_path / "vcache"
        hang_env = dict(env, REPRO_WORKER_FAULT="hang:120@1:j")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "analyze", str(src),
             "-i", "x", "-o", "y,z", "--json", *POOL,
             "--kill-timeout", "120", "--cache-dir", str(store)],
            cwd=str(tmp_path), env=hang_env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not _loop_settled(store, "0:i"):
                assert time.monotonic() < deadline, \
                    "first loop never settled in the store"
                time.sleep(0.1)
        finally:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()

        rerun = _cli(tmp_path, src, *POOL, "--cache-dir", str(store),
                     env=env)
        doc = json.loads(rerun.stdout)
        cache = doc.pop("cache")

        # loop 0:i replays from the store, loop 1:j is analyzed anew;
        # together they are the uninterrupted run, timers aside (an
        # all-healthy run carries no "resilience" or "workers" key)
        assert cache["loop_hits"] == 1
        assert _zero_timers(doc) == _zero_timers(base_doc)

    def test_strict_flags_degraded_runs(self, tmp_path):
        src = tmp_path / "two.f"
        src.write_text(SAFE_TWO_LOOPS)
        env = dict(_env(), REPRO_WORKER_FAULT="exit:3@1:j")
        proc = _cli(tmp_path, src, *POOL, "--strict", env=env, check=False)
        assert proc.returncode == 3
        doc = json.loads(proc.stdout)
        assert doc["resilience"]["degraded_loops"] == 1
        statuses = {w["loop"]: w["status"] for w in doc["workers"]}
        assert statuses == {"0:i": "ok", "1:j": "crash"}


class TestAutoBackend:
    def test_auto_without_jobs_starts_no_worker(self, tmp_path, capsys):
        src = tmp_path / "two.f90"
        src.write_text(SAFE_TWO_LOOPS)
        trace = tmp_path / "t.jsonl"
        assert main(["analyze", str(src), "-i", "x", "-o", "y,z",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        events = load_trace(str(trace))
        assert any(e["type"] == "verdict" for e in events)
        assert not any("worker_id" in e for e in events)
