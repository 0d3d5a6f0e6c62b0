"""The ``repro serve`` daemon: memoization, dedup, soundness, drain.

What must hold (docs/SCALING.md §6):

* a repeat identical request is answered from the in-memory memo —
  no second analysis (``serve.cold_runs`` stays at 1);
* N *concurrent* identical requests coalesce onto one runner;
* only clean runs are memoized: a deadline-degraded analysis is
  re-run on the next request, never served stale;
* a failing request answers with an error reply and the connection
  (and the daemon) survives;
* with a ``--cache-dir`` store, a daemon restart answers from disk
  (``served_from == "cache"``);
* SIGTERM drains in-flight requests and exits 0.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import (AnalysisService, ServeClient, ServeConfig,
                         ServeError, build_server)

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

RACY = """
subroutine racy(x, y, n)
  real, intent(in) :: x(1000)
  real, intent(inout) :: y(1000)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 1, n
    y(1) = x(i)
  end do
end subroutine racy
"""


def _analyze_request(source=TWO_LOOPS, head="two", **extra):
    request = {"op": "analyze", "source": source, "head": head,
               "independents": ["x"], "dependents": ["y", "z"],
               "flags": {}}
    request.update(extra)
    return request


@pytest.fixture()
def service():
    service = AnalysisService(ServeConfig("unused.sock"))
    yield service
    service.close()


class TestServiceDispatch:
    def test_hello(self, service):
        reply = service.handle({"op": "hello"})
        assert reply["ok"] and reply["server"] == "repro-serve"
        assert reply["pid"] == os.getpid()

    def test_bad_op_is_an_error_reply(self, service):
        reply = service.handle({"op": "frobnicate"})
        assert not reply["ok"]
        assert "frobnicate" in reply["error"]["message"]

    def test_foreign_schema_is_rejected(self, service):
        reply = service.handle({"op": "hello", "schema": "repro-serve/99"})
        assert not reply["ok"]
        assert "repro-serve/1" in reply["error"]["message"]

    def test_shutdown_sets_stop_event(self, service):
        assert not service.stop_event.is_set()
        reply = service.handle({"op": "shutdown"})
        assert reply["ok"] and reply["draining"]
        assert service.stop_event.is_set()

    def test_analyze_error_keeps_the_service_alive(self, service):
        reply = service.handle(_analyze_request(source="not fortran at"
                                                       " all"))
        assert not reply["ok"]
        # the failure is an error reply, not a crash: the next request
        # still answers
        assert service.handle({"op": "hello"})["ok"]

    def test_primal_race_is_reported_by_type(self, service):
        reply = service.handle(_analyze_request(source=RACY, head="racy",
                                                dependents=["y"]))
        assert not reply["ok"]
        assert reply["error"]["type"] == "PrimalRaceError"


class TestMemo:
    def test_repeat_request_is_memo_served(self, service):
        first = service.handle(_analyze_request())
        assert first["ok"] and first["served_from"] == "cold"
        assert [loop["key"] for loop in first["loops"]] == ["0:i", "1:j"]
        assert all(loop["done"]["degraded"] is False
                   for loop in first["loops"])

        second = service.handle(_analyze_request())
        assert second["ok"] and second["served_from"] == "memo"
        assert second["loops"] == first["loops"]

        snapshot = service.registry.snapshot()["counters"]
        assert snapshot["serve.cold_runs"] == 1
        assert snapshot["serve.memo_hits"] == 1

    def test_different_flags_do_not_share_the_memo(self, service):
        service.handle(_analyze_request())
        other = service.handle(_analyze_request(
            flags={"use_question_memo": False}))
        assert other["ok"] and other["served_from"] == "cold"
        assert service.registry.snapshot()["counters"]["serve.cold_runs"] == 2

    def test_degraded_run_is_not_memoized(self, service):
        # an already-expired deadline degrades every loop; serving that
        # from the memo would freeze a resource accident into an answer
        first = service.handle(_analyze_request(deadline=0.0))
        assert first["ok"]
        assert any(loop["done"]["degraded"] or loop["done"].get("stats")
                   for loop in first["loops"])
        second = service.handle(_analyze_request())
        assert second["served_from"] == "cold"
        snapshot = service.registry.snapshot()["counters"]
        assert snapshot["serve.cold_runs"] == 2
        assert snapshot.get("serve.memo_hits", 0) == 0

    def test_concurrent_identical_requests_coalesce(self, service):
        replies = []
        lock = threading.Lock()

        def ask():
            reply = service.handle(_analyze_request())
            with lock:
                replies.append(reply)

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(replies) == 4
        assert all(reply["ok"] for reply in replies)
        loops = replies[0]["loops"]
        assert all(reply["loops"] == loops for reply in replies)
        # one analysis total, however the threads interleaved
        assert service.registry.snapshot()["counters"]["serve.cold_runs"] == 1


class TestCacheStoreIntegration:
    def test_daemon_restart_answers_from_disk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = AnalysisService(ServeConfig("unused.sock",
                                            cache_dir=cache_dir))
        try:
            cold = first.handle(_analyze_request())
            assert cold["ok"] and cold["served_from"] == "cold"
        finally:
            first.close()

        second = AnalysisService(ServeConfig("unused.sock",
                                             cache_dir=cache_dir))
        try:
            warm = second.handle(_analyze_request())
            assert warm["ok"] and warm["served_from"] == "cache"
            assert warm["loops"] == cold["loops"]
            snapshot = second.registry.snapshot()["counters"]
            assert snapshot["cache.loop_hits"] == 2
        finally:
            second.close()

    def test_size_budget_evicts_after_the_run(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        service = AnalysisService(ServeConfig(
            "unused.sock", cache_dir=cache_dir, cache_max_bytes=1))
        try:
            assert service.handle(_analyze_request())["ok"]
            snapshot = service.registry.snapshot()["counters"]
            assert snapshot.get("serve.evictions", 0) >= 1
            assert not [name for name in os.listdir(cache_dir)
                        if name.endswith(".jsonl")]
        finally:
            service.close()


@pytest.fixture()
def daemon(tmp_path):
    address = str(tmp_path / "serve.sock")
    service = AnalysisService(ServeConfig(address))
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    yield address, service
    server.shutdown()
    thread.join()
    server.server_close()
    service.close()


class TestSocketFrontEnd:
    def test_hello_analyze_stats_round_trip(self, daemon):
        address, _ = daemon
        client = ServeClient(address)
        try:
            assert client.hello()["server"] == "repro-serve"
            reply = client.analyze(TWO_LOOPS, "two", ["x"], ["y", "z"])
            assert reply["served_from"] == "cold"
            stats = client.stats()
            assert stats["metrics"]["counters"]["serve.cold_runs"] == 1
            assert stats["memo_entries"] == 1
        finally:
            client.close()

    def test_two_connections_share_the_memo(self, daemon):
        address, _ = daemon
        a = ServeClient(address)
        b = ServeClient(address)
        try:
            cold = a.analyze(TWO_LOOPS, "two", ["x"], ["y", "z"])
            warm = b.analyze(TWO_LOOPS, "two", ["x"], ["y", "z"])
            assert cold["served_from"] == "cold"
            assert warm["served_from"] == "memo"
            assert warm["loops"] == cold["loops"]
        finally:
            a.close()
            b.close()

    def test_primal_race_propagates_to_the_client(self, daemon):
        from repro.formad.engine import PrimalRaceError

        address, _ = daemon
        client = ServeClient(address)
        try:
            with pytest.raises(PrimalRaceError):
                client.analyze(RACY, "racy", ["x"], ["y"])
        finally:
            client.close()

    def test_connecting_nowhere_is_a_serve_error(self, tmp_path):
        with pytest.raises(ServeError):
            ServeClient(str(tmp_path / "nobody-home.sock"))


class TestConnectedAnalysis:
    def test_rebuilt_analyses_match_in_process(self, daemon):
        from repro.analysis.activity import ActivityAnalysis
        from repro.formad import FormADEngine
        from repro.ir import parse_program
        from repro.serve.client import analyze_connected
        from repro.smt.clausify import clausify_cache_clear

        address, _ = daemon
        proc = parse_program(TWO_LOOPS)["two"]
        activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
        clausify_cache_clear()
        local = FormADEngine(proc, activity).analyze_all()

        probe = FormADEngine(parse_program(TWO_LOOPS)["two"],
                             ActivityAnalysis(proc, ["x"], ["y", "z"]))
        remote = analyze_connected(probe, TWO_LOOPS, "two", ["x"],
                                   ["y", "z"], address=address)
        assert len(remote) == len(local)
        for ours, theirs in zip(local, remote):
            assert not theirs.degraded
            assert theirs.cacheable
            assert {n: v.safe for n, v in theirs.verdicts.items()} \
                == {n: v.safe for n, v in ours.verdicts.items()}
            assert theirs.safe_write_expressions \
                == ours.safe_write_expressions
            assert theirs.stats.solver_unsat == ours.stats.solver_unsat


def _spawn_daemon(tmp_path, *extra):
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root)
    address = str(tmp_path / "serve.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", address,
         *extra],
        env=env, cwd=str(tmp_path), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.connect(address)
            probe.close()
            return proc, address
        except OSError:
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon died on start: {proc.stderr.read()}")
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never started listening")


class TestRealDaemonProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, address = _spawn_daemon(tmp_path)
        try:
            client = ServeClient(address)
            assert client.hello()["ok"]
            reply = client.analyze(TWO_LOOPS, "two", ["x"], ["y", "z"])
            assert reply["served_from"] == "cold"
            client.close()
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "drained, exiting" in stderr
        assert not os.path.exists(address)  # socket file cleaned up

    def test_shutdown_op_also_drains(self, tmp_path):
        proc, address = _spawn_daemon(tmp_path)
        try:
            client = ServeClient(address)
            assert client.shutdown()["draining"]
            client.close()
            stdout, stderr = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr


class TestCliConnect:
    def test_connect_json_matches_in_process(self, tmp_path, daemon,
                                             capsys):
        from repro.cli import main
        from repro.obs.metrics import TIMER_KEYS
        from repro.smt.clausify import clausify_cache_clear

        def normalize(doc):
            if isinstance(doc, dict):
                return {k: (0 if k == "uid" else
                            0.0 if k in TIMER_KEYS else normalize(v))
                        for k, v in doc.items()}
            if isinstance(doc, list):
                return [normalize(v) for v in doc]
            return doc

        address, service = daemon
        src = tmp_path / "two.f90"
        src.write_text(TWO_LOOPS)
        argv = ["analyze", str(src), "-i", "x", "-o", "y,z", "--json"]

        clausify_cache_clear()
        capsys.readouterr()
        assert main(argv) == 0
        inline = normalize(json.loads(capsys.readouterr().out))

        for _ in range(2):  # cold then memo: both identical
            clausify_cache_clear()
            assert main(argv + ["--connect", address]) == 0
            connected = normalize(json.loads(capsys.readouterr().out))
            assert connected == inline

    def test_connect_rejects_local_only_flags(self, tmp_path, daemon,
                                              capsys):
        from repro.cli import main

        address, _ = daemon
        src = tmp_path / "two.f90"
        src.write_text(TWO_LOOPS)
        for extra in (["--cache-dir", str(tmp_path / "c")],
                      ["--backend", "process"]):
            assert main(["analyze", str(src), "-i", "x", "-o", "y,z",
                         "--connect", address, *extra]) == 1

    def test_connect_to_dead_daemon_fails_cleanly(self, tmp_path,
                                                  capsys):
        from repro.cli import main

        src = tmp_path / "two.f90"
        src.write_text(TWO_LOOPS)
        assert main(["analyze", str(src), "-i", "x", "-o", "y,z",
                     "--connect", str(tmp_path / "gone.sock")]) == 1
