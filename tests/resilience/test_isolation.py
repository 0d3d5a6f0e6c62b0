"""Single-worker isolation: identity with inline and fault containment.

Isolating the analysis from the parent process means running it on a
loop-shard pool of one worker (``analyze --jobs 1``).  The
fault-independence contract: a crashed, hung, or raising worker
degrades exactly its own loop (safeguards everywhere, planned question
counts preserved), and the respawned worker serves the other loop as
if nothing had happened.  The kill -9 + ``--cache-dir`` recovery test
lives in ``test_shards.py``.
"""

import time

from repro.analysis.activity import ActivityAnalysis
from repro.formad import FormADEngine
from repro.ir import parse_program
from repro.resilience.shards import ShardConfig, analyze_sharded

#: Both loops are all-safe (each adjoint hits only its own slot), so
#: the honest analysis never breaks early on a SAT answer and degraded
#: runs must reproduce the exact same exploitation-question counts.
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

#: Counters that must survive the worker round-trip bit-for-bit
#: (timers vary with the wall clock and are excluded).
COUNTERS = ("consistency_checks", "exploitation_checks", "memo_hits",
            "model_size", "unique_exprs", "skipped_pairs", "solver_sat",
            "solver_unsat", "solver_unknown")


def _engine(proc):
    activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
    return FormADEngine(proc, activity)


def _isolated(proc, **config_kwargs):
    engine = _engine(proc)
    return analyze_sharded(engine, SAFE_TWO_LOOPS, "two", ["x"],
                           ["y", "z"],
                           config=ShardConfig(jobs=1, **config_kwargs))


class TestIsolationIdentity:
    def test_isolate_matches_inline(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        isolated, outcomes = _isolated(proc)

        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert len(isolated) == len(inline) == 2
        for worker, local in zip(isolated, inline):
            assert not worker.degraded
            assert {n: v.safe for n, v in worker.verdicts.items()} \
                == {n: v.safe for n, v in local.verdicts.items()}
            assert worker.safe_write_expressions \
                == local.safe_write_expressions
            for name in COUNTERS:
                assert getattr(worker.stats, name) \
                    == getattr(local.stats, name), name


class TestFaultContainment:
    def test_worker_crash_degrades_only_that_loop(self, monkeypatch):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        monkeypatch.setenv("REPRO_WORKER_FAULT", "exit:3@1:j")
        isolated, outcomes = _isolated(proc)

        assert [o.status for o in outcomes] == ["ok", "crash"]
        assert "status 3" in outcomes[1].detail
        healthy, degraded = isolated
        assert not healthy.degraded
        assert {n: v.safe for n, v in healthy.verdicts.items()} \
            == {n: v.safe for n, v in inline[0].verdicts.items()}
        assert degraded.degraded
        assert degraded.safe_arrays() == set()
        # fault-independent accounting: the degraded loop still counts
        # every question it would have asked
        assert degraded.stats.exploitation_checks \
            == inline[1].stats.exploitation_checks
        assert degraded.stats.exploitation_checks > 0

    def test_worker_exception_is_contained(self, monkeypatch):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise@0:i")
        isolated, outcomes = _isolated(proc)
        assert outcomes[0].status == "crash"
        assert "injected worker fault" in outcomes[0].detail
        assert isolated[0].degraded
        assert outcomes[1].status == "ok"
        assert not isolated[1].degraded

    def test_hung_worker_is_killed_and_degraded(self, monkeypatch):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        monkeypatch.setenv("REPRO_WORKER_FAULT", "hang:30@0:i")
        start = time.monotonic()
        isolated, outcomes = _isolated(proc, kill_timeout=1.5)
        assert time.monotonic() - start < 20.0
        assert outcomes[0].status == "timeout"
        assert "kill timeout" in outcomes[0].detail
        assert isolated[0].degraded
        assert isolated[0].safe_arrays() == set()
        assert outcomes[1].status == "ok"
        assert not isolated[1].degraded
