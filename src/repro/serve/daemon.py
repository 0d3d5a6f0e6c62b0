"""The ``repro serve`` daemon: analysis-as-a-service.

Every one-shot ``repro analyze`` pays the full cold start —
interpreter boot, module imports, model build, and (under ``--backend
process``) a worker-pool spawn — before the first solver call. The
daemon pays those once: a long-lived process holding

* one :class:`~repro.resilience.shards.WorkerPool` kept **warm**
  across requests (``--backend process``; each run re-inits the
  workers, which is engine construction, not process spawn),
* one in-memory **memo** of clean runs keyed by the journal
  fingerprint — a repeat request is answered from memory with no
  dispatch, no model build, and no solver call at all,
* one :class:`~repro.resilience.cache.CacheStore` (``--cache-dir``)
  whose per-fingerprint files answer across daemon restarts and whose
  size budget (``--cache-max-bytes``) is enforced by LRU eviction
  after every store,
* one :class:`~repro.obs.metrics.MetricsRegistry` accumulating
  ``serve.*`` and ``cache.*`` counters over the daemon's lifetime
  (the ``stats`` op snapshots it).

Concurrency model: the front end is one thread per connection
(``socketserver.ThreadingMixIn``), but *analyses are serialized* by a
run lock — the worker pool and the process-global clausify caches are
single-tenant, and run-determinism of the counters depends on that.
Concurrent **identical** requests deduplicate before the lock: the
first becomes the runner, the rest wait on its in-flight event and
are answered from the memo it fills — N clients asking the same
question cost one analysis.

Soundness of the memo mirrors the verdict cache: only *clean* runs
(every loop ``cacheable`` — no degradation, timeouts, UNKNOWNs, or
solver failures) are memoized, and resource limits are outside the
key, so a memo answer is valid under any client's budget. A request
whose deadline expires gets its degraded result — and the next
identical request triggers a fresh analysis.

Shutdown: SIGTERM (or SIGINT, or a ``shutdown`` request) stops the
accept loop, then ``server_close`` **joins the in-flight handler
threads** — every accepted request is answered before exit 0, and the
single-writer cache discipline means no torn cache lines. That is the
graceful drain the CI smoke job asserts.
"""

from __future__ import annotations

import logging
import os
import signal
import socketserver
import sys
import threading
import time
from typing import Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import RegistryTracer
from .protocol import (SERVE_SCHEMA, error_reply, parse_address,
                       read_message, write_message)

logger = logging.getLogger(__name__)


class ServeConfig:
    """How ``repro serve`` runs (one instance per daemon)."""

    def __init__(self, address: str, *, jobs: Optional[int] = None,
                 backend: str = "thread",
                 cache_dir: Optional[str] = None,
                 cache_max_bytes: Optional[int] = None,
                 kill_timeout: float = 60.0) -> None:
        self.address = address
        self.jobs = jobs
        self.backend = backend
        self.cache_dir = cache_dir
        self.cache_max_bytes = cache_max_bytes
        self.kill_timeout = kill_timeout


class AnalysisService:
    """The daemon's request brain, independent of the socket front end
    (tests drive it in-process through :meth:`handle`)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.store = None
        if config.cache_dir:
            from ..resilience.cache import CacheStore
            self.store = CacheStore(config.cache_dir,
                                    max_bytes=config.cache_max_bytes)
        self.pool = None
        if config.backend == "process":
            from ..resilience.shards import ShardConfig, WorkerPool
            shard_config = ShardConfig(jobs=max(1, config.jobs or 1),
                                       kill_timeout=config.kill_timeout)
            self.pool = WorkerPool(shard_config, shard_config.jobs)
        #: fingerprint -> memoized clean reply payload (loops records).
        self._memo: Dict[str, dict] = {}
        self._inflight: Dict[str, threading.Event] = {}
        self._memo_lock = threading.Lock()
        self._run_lock = threading.Lock()
        #: Set by the front end; the ``shutdown`` op triggers it.
        self.stop_event = threading.Event()

    # ------------------------------------------------------------ dispatch
    def handle(self, request: dict) -> dict:
        """One request object in, one reply object out (never raises —
        failures become error replies so the connection survives)."""
        self.registry.counter("serve.requests")
        schema = request.get("schema")
        if schema is not None and schema != SERVE_SCHEMA:
            self.registry.counter("serve.errors")
            return error_reply("ValueError",
                               f"unsupported schema {schema!r}, expected "
                               f"{SERVE_SCHEMA}")
        op = request.get("op")
        try:
            if op == "hello":
                return {"schema": SERVE_SCHEMA, "ok": True,
                        "server": "repro-serve", "pid": os.getpid()}
            if op == "stats":
                return self._stats()
            if op == "shutdown":
                self.stop_event.set()
                return {"schema": SERVE_SCHEMA, "ok": True,
                        "draining": True}
            if op == "analyze":
                return self.analyze(request)
        except Exception as exc:  # noqa: BLE001 - the reply channel
            logger.exception("serve: %s request failed", op)
            self.registry.counter("serve.errors")
            return error_reply(type(exc).__name__, str(exc))
        self.registry.counter("serve.errors")
        return error_reply("ValueError", f"bad request op {op!r}")

    def _stats(self) -> dict:
        snapshot = self.registry.snapshot()
        with self._memo_lock:
            memo_entries = len(self._memo)
        reply = {"schema": SERVE_SCHEMA, "ok": True,
                 "metrics": snapshot, "memo_entries": memo_entries,
                 "pool_spawns": (self.pool.spawns
                                 if self.pool is not None else 0)}
        if self.store is not None:
            reply["cache_store"] = self.store.stats()
        return reply

    # ------------------------------------------------------------- analyze
    def analyze(self, request: dict) -> dict:
        from ..resilience.journal import journal_fingerprint

        source = str(request["source"])
        head = str(request["head"])
        independents = [str(n) for n in request["independents"]]
        dependents = [str(n) for n in request["dependents"]]
        flags = dict(request.get("flags") or {})
        fingerprint = journal_fingerprint(source, head, independents,
                                          dependents, flags)
        while True:
            with self._memo_lock:
                memo = self._memo.get(fingerprint)
                if memo is not None:
                    self.registry.counter("serve.memo_hits")
                    return dict(memo, served_from="memo")
                event = self._inflight.get(fingerprint)
                if event is None:
                    event = threading.Event()
                    self._inflight[fingerprint] = event
                    break
            # An identical request is already running: wait for it and
            # answer from the memo it fills. If its run was not clean
            # (nothing memoized), loop around and run our own.
            self.registry.counter("serve.dedup_waits")
            event.wait()
        try:
            return self._run(request, fingerprint)
        finally:
            with self._memo_lock:
                self._inflight.pop(fingerprint, None)
            event.set()

    def _run(self, request: dict, fingerprint: str) -> dict:
        """One cold analysis under the run lock: the worker pool and
        the process-global clausify caches are single-tenant."""
        from ..analysis.activity import ActivityAnalysis
        from ..formad.engine import FormADEngine
        from ..ir import parse_program
        from ..resilience.deadline import Deadline
        from ..resilience.escalate import EscalationPolicy
        from ..resilience.journal import serialize_analysis
        from ..smt.clausify import clausify_cache_clear

        source = str(request["source"])
        head = str(request["head"])
        independents = [str(n) for n in request["independents"]]
        dependents = [str(n) for n in request["dependents"]]
        flags = dict(request.get("flags") or {})
        with self._run_lock:
            self.registry.counter("serve.cold_runs")
            t0 = time.perf_counter()
            # Cold caches per run, like a fresh serve-worker init: the
            # deterministic counters must not depend on request order.
            clausify_cache_clear()
            proc = parse_program(source)[head]
            activity = ActivityAnalysis(proc, independents, dependents)
            escalation = None
            escalate = int(request.get("escalate") or 1)
            if escalate > 1:
                escalation = EscalationPolicy(max_attempts=escalate)
            deadline = None
            if request.get("deadline") is not None:
                deadline = Deadline(float(request["deadline"]))
            tracer = RegistryTracer(self.registry)
            engine = FormADEngine(
                proc, activity, tracer=tracer, deadline=deadline,
                question_timeout=request.get("question_timeout"),
                escalation=escalation, **flags)
            cache = None
            if self.store is not None:
                cache = self.store.open(fingerprint)
                engine.attach_run_state(cache=cache)
            try:
                if self.pool is not None:
                    from ..resilience.shards import (ShardConfig,
                                                     analyze_sharded)
                    config = ShardConfig(jobs=self.pool.size,
                                         kill_timeout=self.config
                                         .kill_timeout)
                    analyses, outcomes = analyze_sharded(
                        engine, source, head, independents, dependents,
                        config=config, cache_dir=self.config.cache_dir,
                        fingerprint=fingerprint, pool=self.pool)
                else:
                    analyses = engine.analyze_all(jobs=self.config.jobs)
                    outcomes = None
            finally:
                cache_summary = None
                if cache is not None:
                    cache.close()
                    cache_summary = cache.summary_data()
                    for name, value in cache_summary.items():
                        if name != "path":
                            tracer.counter(f"cache.{name}", value)
                    if self.store is not None \
                            and self.store.max_bytes is not None:
                        evicted = self.store.evict()
                        if evicted:
                            self.registry.counter("serve.evictions",
                                                  len(evicted))
            loops: List[dict] = []
            for analysis in analyses:
                key = engine.loop_key(analysis.loop)
                loops.append(dict(
                    serialize_analysis(key, analysis), key=key,
                    cacheable=bool(getattr(analysis, "cacheable",
                                           False))))
            clean = bool(analyses) and all(
                getattr(a, "cacheable", False) for a in analyses)
            served_from = "cold"
            if cache is not None and analyses \
                    and cache.loop_hits == len(analyses):
                served_from = "cache"
            reply = {"schema": SERVE_SCHEMA, "ok": True,
                     "fingerprint": fingerprint, "procedure": head,
                     "loops": loops}
            if outcomes is not None and any(
                    o.status not in ("ok", "cached")
                    for o in outcomes):
                reply["workers"] = [
                    {"loop": o.loop_key, "status": o.status,
                     "detail": o.detail}
                    for o in outcomes]
            if clean:
                with self._memo_lock:
                    self._memo[fingerprint] = reply
                self.registry.gauge("serve.memo_entries",
                                    len(self._memo))
            self.registry.observe("serve.run_seconds",
                                  time.perf_counter() - t0)
            return dict(reply, served_from=served_from)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: serve request lines until the client hangs up.
    Runs on its own (non-daemon) thread, which ``server_close`` joins
    on shutdown — the graceful drain."""

    def handle(self) -> None:  # noqa: A003 - socketserver contract
        service = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                request = read_message(self.rfile)
            except Exception as exc:  # broken line: answer, then drop
                try:
                    write_message(self.wfile,
                                  error_reply(type(exc).__name__, str(exc)))
                except OSError:  # pragma: no cover - client gone
                    pass
                return
            if request is None:
                return
            reply = service.handle(request)
            try:
                write_message(self.wfile, reply)
            except OSError:  # pragma: no cover - client gone mid-reply
                return
            if request.get("op") == "shutdown":
                return


class _ThreadingTCPServer(socketserver.ThreadingMixIn,
                          socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = False      # server_close() joins in-flight handlers
    block_on_close = True


if hasattr(socketserver, "UnixStreamServer"):
    class _ThreadingUnixServer(socketserver.ThreadingMixIn,
                               socketserver.UnixStreamServer):
        daemon_threads = False
        block_on_close = True
else:  # pragma: no cover - non-POSIX platform
    _ThreadingUnixServer = None


def build_server(service: AnalysisService):
    """The listening (not yet serving) socket server for the service's
    configured address."""
    kind, target = parse_address(service.config.address)
    if kind == "tcp":
        server = _ThreadingTCPServer(target, _Handler)
    else:
        if _ThreadingUnixServer is None:  # pragma: no cover
            raise RuntimeError("unix sockets are unavailable here; use a "
                               "HOST:PORT address")
        if os.path.exists(target):
            # A stale socket file from a crashed daemon; a live daemon
            # would still be flock-free but bound — connecting is the
            # only true liveness probe, and binding fails loudly then.
            os.unlink(target)
        server = _ThreadingUnixServer(target, _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server


def run_daemon(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT (or a ``shutdown`` request),
    then drain in-flight requests and exit 0."""
    service = AnalysisService(config)
    server = build_server(service)
    stop = service.stop_event

    def _on_signal(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)
    acceptor = threading.Thread(target=server.serve_forever,
                                kwargs={"poll_interval": 0.1},
                                name="serve-accept")
    acceptor.start()
    print(f"repro serve: listening on {config.address} "
          f"(pid {os.getpid()}, backend {config.backend}, "
          f"jobs {config.jobs or 1})", file=sys.stderr, flush=True)
    try:
        stop.wait()
    finally:
        server.shutdown()          # stop accepting
        acceptor.join()
        server.server_close()      # join in-flight handlers: the drain
        service.close()            # then retire the warm worker pool
        kind, target = parse_address(config.address)
        if kind == "unix":
            try:
                os.unlink(target)
            except OSError:
                pass
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("repro serve: drained, exiting", file=sys.stderr, flush=True)
    return 0
