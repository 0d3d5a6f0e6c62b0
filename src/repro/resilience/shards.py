"""Multiprocess shard scheduler (the ``analyze --jobs N`` runtime).

The analysis is pure Python, so threads in one interpreter would take
turns on the GIL instead of solving side by side. ``--jobs N`` instead
starts up to N **persistent worker processes** (``python -m
repro.resilience.worker --serve``), each running a real interpreter of
its own, pulling loop-granularity shards from a shared work queue
(work-stealing: a worker that finishes early takes the next loop, so
one slow region never idles the rest of the pool). Without ``--jobs``
the loops run inline in the calling process.

Division of labor (docs/SCALING.md):

* **Workers** analyze. They never write the parent's trace stream or
  run-state store; each reply carries one loop's serialized analysis,
  buffered trace events, and the decided answers the worker's
  read-only store received.
* **The parent** owns all I/O: it is the single store writer and the
  single trace sink. :meth:`WorkerPool.run` is the one driver of the
  pool (``repro audit --jobs`` runs on it too): one feeder thread per
  slot, named ``shard-<k>`` here (the name trace events inherit),
  applies its worker's replies under one lock, so per-loop record
  blocks stay contiguous in the store.
* **Replay stays parental**: clean loops from the ``--cache-dir``
  store are replayed in the parent *before* sharding; only genuinely
  open loops are queued.

This is also the crash-containment runtime (docs/RESILIENCE.md): a
crashed, hung, or killed worker degrades the loop it was holding
(safeguards everywhere, planned question counts — Table-1 totals stay
fault-independent) and the feeder respawns a fresh worker for its next
shard. A :class:`~repro.formad.engine.PrimalRaceError` reported by any
worker stops the pool and is re-raised, exactly as the inline analysis
would; so is any other exception a feeder raises (a store write that
fails, say), instead of leaving its loop without a result.

The pool's output is byte-identical to the inline run's, modulo
timers (tests/resilience/test_backend_identity.py keeps that true).
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.clock import ClockSync
from .journal import rebuild_analysis

#: Grace period added to a deadline before the hard kill: the worker
#: polls its own (tighter) deadline cooperatively, so the parent only
#: kills workers that stopped cooperating.
DEADLINE_GRACE = 2.0


@dataclass
class WorkerOutcome:
    """What happened to one loop's shard."""

    loop_key: str
    #: ``ok`` | ``crash`` | ``timeout`` | ``cached`` (no worker ran:
    #: the loop replayed from the ``--cache-dir`` store).
    status: str
    detail: str = ""
    elapsed: float = 0.0


def _fold_worker_events(tracer, items, *, worker_id=None, clock=None,
                        window=None, partial=False) -> int:
    """Re-emit one reply's buffered worker events through the parent's
    tracer, tagging each with its ``worker_id`` and normalizing its
    worker-side timestamp onto the parent timeline (clamped into the
    carrying request's send/receive *window* — see
    :mod:`repro.obs.clock`). ``partial=True`` marks telemetry recovered
    from a shard whose worker died before finishing. Also feeds the
    ``solver.check_seconds`` histogram, which worker-side solvers
    cannot reach. Returns the number of events folded."""
    if not items:
        return 0
    count = 0
    for item in items:
        etype, fields = str(item[0]), dict(item[1])
        if tracer.enabled:
            if worker_id is not None:
                fields["worker_id"] = worker_id
            if partial:
                fields["partial"] = True
            if clock is not None and len(item) > 2 and item[2] is not None:
                pc = clock.to_parent(float(item[2]), window=window)
                if pc is not None:
                    fields["t"] = tracer.to_trace_time(pc)
            tracer.emit(etype, **fields)
        if etype == "solver_check":
            tracer.observe("solver.check_seconds",
                           float(item[1].get("dur_s") or 0.0))
        count += 1
    return count


class WorkerGone(RuntimeError):
    """A serve worker died, went silent, or answered garbage."""

    def __init__(self, status: str, detail: str) -> None:
        super().__init__(detail)
        #: ``crash`` or ``timeout`` — becomes the WorkerOutcome status.
        self.status = status
        self.detail = detail


@dataclass(frozen=True)
class ShardConfig:
    """How the ``--jobs`` pool runs its workers."""

    #: Number of worker processes (capped by the open-loop count).
    jobs: int = 2
    #: Hard wall-clock cap per worker request, enforced by SIGKILL.
    kill_timeout: float = 60.0


def _worker_env() -> Dict[str, str]:
    """This process's environment (``REPRO_WORKER_FAULT`` included),
    with this ``repro`` first on ``PYTHONPATH``, so the worker imports
    it the same way this process did."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parts = [src_root] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != src_root]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class WorkerClient:
    """One persistent serve worker and its line-protocol plumbing.

    stdout is drained by a dedicated reader thread into a queue, so
    every request gets a *timeout-bounded* wait for its reply line — a
    hung worker surfaces as :class:`WorkerGone` (``timeout``) instead
    of blocking the feeder forever. stderr is drained too (into a
    short tail kept for crash diagnostics) so a chatty worker can
    never deadlock on a full pipe.
    """

    def __init__(self, worker_id: Optional[str] = None, *,
                 tracer=None) -> None:
        #: Stable pool-slot identity ("w0", "w1", ...) stamped onto
        #: every trace event this worker's replies carry.
        self.worker_id = worker_id
        #: Receives the ``clock_sync`` event of this worker's first
        #: reply after ``init``.
        self.tracer = tracer
        #: The clock-offset handshake estimate (updated by every reply
        #: after ``init``).
        self.clock = ClockSync()
        #: The (send, recv) perf_counter bracket of the last request —
        #: the clamp window for its buffered event timestamps.
        self.last_window: Optional[Tuple[float, float]] = None
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.resilience.worker", "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=_worker_env())
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr_tail: deque = deque(maxlen=20)
        self._readers = [threading.Thread(target=read, daemon=True)
                         for read in (self._read_stdout, self._read_stderr)]
        for reader in self._readers:
            reader.start()

    def init(self, init_request: dict, timeout: float) -> None:
        """Send the worker its one ``init`` request (the program and
        engine flags of the run, or audit mode)."""
        reply = self.request(init_request, timeout=timeout)
        if not reply.get("ok"):
            raise WorkerGone("crash", f"worker init failed: {reply!r}")

    # ------------------------------------------------------------ plumbing
    def _read_stdout(self) -> None:
        try:
            for line in self._proc.stdout:
                self._lines.put(line)
        except ValueError:  # pragma: no cover - file closed under us
            pass
        self._lines.put(None)

    def _read_stderr(self) -> None:
        try:
            for line in self._proc.stderr:
                self._stderr_tail.append(line.rstrip())
        except ValueError:  # pragma: no cover
            pass

    def _death_detail(self, fallback: str) -> str:
        try:
            # The reader saw EOF an instant before the child is
            # reapable; give it a moment so the detail can name the
            # exit status or signal instead of just "closed stdout".
            self._proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            pass
        rc = self._proc.poll()
        if rc is not None and rc < 0:
            detail = f"worker killed by signal {-rc}"
        elif rc is not None:
            detail = f"worker exited with status {rc}"
        else:
            detail = fallback
        if self._stderr_tail:
            detail += f": {self._stderr_tail[-1]}"
        return detail

    # ------------------------------------------------------------ protocol
    def request(self, request: dict, timeout: float) -> dict:
        send_pc = time.perf_counter()
        try:
            self._proc.stdin.write(json.dumps(request) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise WorkerGone(
                "crash", self._death_detail(f"worker pipe broke: {exc}"))
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise WorkerGone(
                "timeout",
                f"worker exceeded its {timeout:.1f}s kill timeout")
        if line is None:
            raise WorkerGone("crash",
                             self._death_detail("worker closed its stdout"))
        try:
            reply = json.loads(line)
        except ValueError:
            raise WorkerGone("crash", "worker produced unparsable output")
        if not isinstance(reply, dict):
            raise WorkerGone("crash", "worker produced a non-object reply")
        recv_pc = time.perf_counter()
        self.last_window = (send_pc, recv_pc)
        # The init round trip spans the worker's interpreter start-up,
        # so it is no clock sample.
        if request.get("op") != "init" \
                and isinstance(reply.get("clock"), (int, float)):
            first = self.clock.offset is None
            self.clock.update(float(reply["clock"]), send_pc, recv_pc)
            if first and self.tracer is not None and self.tracer.enabled:
                # Stamped when the round trip began, so it precedes the
                # reply's worker events, which are clamped into it.
                self.tracer.emit("clock_sync", worker_id=self.worker_id,
                                 offset_s=self.clock.offset,
                                 rtt_s=self.clock.rtt,
                                 t=self.tracer.to_trace_time(send_pc))
        return reply

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover
            return
        self._close_pipes()

    def shutdown(self) -> None:
        try:
            self._proc.stdin.write(json.dumps({"op": "shutdown"}) + "\n")
            self._proc.stdin.flush()
            self._proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.kill()
            return
        self._close_pipes()

    def _close_pipes(self) -> None:
        """Close the pipes of the reaped worker. A read end is closed
        only after its reader thread has seen EOF, so a close never
        blocks on a read still in progress."""
        pipes = (self._proc.stdout, self._proc.stderr)
        for reader, pipe in zip(self._readers, pipes):
            reader.join(timeout=5)
            if not reader.is_alive():
                pipe.close()
        try:
            # A killed worker leaves unflushed requests: the flush in
            # close() fails, but the pipe is closed all the same.
            self._proc.stdin.close()
        except OSError:
            pass


class WorkerPool:
    """The persistent worker processes of one run, and their one
    driver, :meth:`run`.

    Slot ``k`` spawns on its first :meth:`client` call, receives the
    pool's *init_request*, and stays alive until it dies (:meth:`drop`)
    or the run ends (:meth:`shutdown`); the next :meth:`client` call
    after a drop spawns a fresh worker. Every worker process therefore
    receives exactly one ``init``.

    Thread-safety: feeders touch disjoint slots (slot ``k`` belongs to
    feeder ``k``), so per-slot state needs no lock; :meth:`shutdown`
    runs after the feeders have joined.
    """

    def __init__(self, config: ShardConfig, size: int,
                 init_request: dict) -> None:
        self.config = config
        self.size = max(1, size)
        self._init_request = init_request
        self._slots: List[Optional[WorkerClient]] = [None] * self.size

    def run(self, items: Iterable, serve: Callable[[int, object], None],
            *, name: str) -> None:
        """Serve every item of *items* on this pool, then shut it down.

        One feeder thread per slot, named ``<name>-<k>`` (the thread
        name every trace event records), calls ``serve(k, item)`` on
        the next queued item until the queue is empty, so a feeder
        that finishes early takes the next item. *serve* contains its
        worker's faults itself: any exception it raises is the run's
        own, so the first one stops every feeder from pulling more work
        and is re-raised here once all of them have joined."""
        work: "queue.Queue" = queue.Queue()
        for item in items:
            work.put(item)
        failure: List[Exception] = []

        def feed(k: int) -> None:
            try:
                while not failure:
                    try:
                        item = work.get_nowait()
                    except queue.Empty:
                        return
                    serve(k, item)
            except Exception as exc:
                failure.append(exc)

        threads = [threading.Thread(target=feed, args=(k,),
                                    name=f"{name}-{k}")
                   for k in range(self.size)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            self.shutdown()
        if failure:
            raise failure[0]

    def is_live(self, k: int) -> bool:
        return self._slots[k] is not None

    def client(self, k: int, *, tracer=None) -> WorkerClient:
        """The worker of slot *k*, spawned and initialized on first use;
        its first reply after ``init`` emits the ``clock_sync`` trace
        event through *tracer*. Raises :class:`WorkerGone` (with the
        slot already dropped) when the spawn or init fails."""
        client = self._slots[k]
        if client is not None:
            return client
        client = WorkerClient(worker_id=f"w{k}", tracer=tracer)
        self._slots[k] = client
        try:
            client.init(self._init_request,
                        timeout=self.config.kill_timeout)
        except WorkerGone:
            self.drop(k)
            raise
        return client

    def drop(self, k: int) -> None:
        """Kill slot *k*'s worker (it died or answered garbage); the
        next :meth:`client` call respawns it."""
        client = self._slots[k]
        if client is not None:
            client.kill()
            self._slots[k] = None

    def shutdown(self) -> None:
        for k, client in enumerate(self._slots):
            if client is not None:
                client.shutdown()
                self._slots[k] = None


def _init_request(engine, source: str, head: str,
                  independents: Sequence[str], dependents: Sequence[str], *,
                  cache_dir: Optional[str],
                  fingerprint: Optional[str]) -> dict:
    return {
        "op": "init",
        "source": source,
        "head": head,
        "independents": list(independents),
        "dependents": list(dependents),
        "flags": engine.fingerprint_flags(),
        "question_timeout": engine.question_timeout,
        "max_attempts": engine.escalation.max_attempts,
        "cache_dir": cache_dir,
        "fingerprint": fingerprint,
        "trace": engine.tracer.enabled,
    }


def _apply_reply(engine, cache, loop, key: str, reply: dict, *,
                 worker_id=None, clock=None, window=None):
    """Apply one shard reply in the parent: store its decided questions
    (and, if clean, the whole loop) in the run-state store, re-emit its
    trace events, and rebuild the :class:`~repro.formad.engine.
    LoopAnalysis`. Callers hold the scheduler's apply lock, so one
    loop's records stay contiguous.

    A structurally broken reply (no serialized analysis) still folds
    whatever trace events *did* arrive — marked ``partial`` — before
    raising; silently dropping telemetry that made it across the wire
    hides exactly the failures the trace exists to explain."""
    tracer = engine.tracer
    serialized = reply.get("analysis")
    if not isinstance(serialized, dict) \
            or not isinstance(serialized.get("done"), dict):
        _fold_worker_events(tracer, reply.get("events"),
                            worker_id=worker_id, clock=clock,
                            window=window, partial=True)
        raise WorkerGone("crash", "worker reply missing its loop analysis")
    done = serialized["done"]
    verdicts = list(serialized.get("verdicts") or [])
    if cache is not None:
        for fields in reply.get("questions") or []:
            cache.store_question(
                str(fields.get("loop", key)), str(fields.get("array", "")),
                str(fields.get("ctx", "")), str(fields.get("q", "")),
                str(fields.get("result", "")), fields.get("witness"))
        cache.question_hits += int(reply.get("cache_hits") or 0)
        if reply.get("cacheable"):
            cache.store_loop(key, done, verdicts)
    _fold_worker_events(tracer, reply.get("events"), worker_id=worker_id,
                        clock=clock, window=window)
    analysis = rebuild_analysis(loop, done, verdicts)
    analysis.cacheable = bool(reply.get("cacheable"))
    return analysis


def analyze_sharded(
    engine,
    source: str,
    head: str,
    independents: Sequence[str],
    dependents: Sequence[str],
    *,
    config: Optional[ShardConfig] = None,
    cache_dir: Optional[str] = None,
    fingerprint: Optional[str] = None,
) -> Tuple[List, List[WorkerOutcome]]:
    """Analyze every parallel loop of *engine*'s procedure across a
    pool of persistent worker processes that lives for this call.

    Returns ``(analyses, outcomes)`` in loop order; loops the parent
    replayed from the store without dispatching a shard get a
    ``cached`` outcome.
    """
    from ..formad.engine import PrimalRaceError

    config = config or ShardConfig()
    tracer = engine.tracer
    cache = engine._vcache
    loops = list(engine.proc.parallel_loops())
    slots: List[Optional[object]] = [None] * len(loops)
    outcomes: List[Optional[WorkerOutcome]] = [None] * len(loops)
    pending = []
    for index, loop in enumerate(loops):
        key = engine.loop_key(loop)
        replayed = engine._replay_cached(loop)
        if replayed is not None:
            slots[index] = replayed
            outcomes[index] = WorkerOutcome(key, "cached")
            continue
        pending.append((index, loop, time.perf_counter()))
    if not pending:
        return slots, outcomes

    pool = WorkerPool(config, min(config.jobs, len(pending)),
                      _init_request(engine, source, head, independents,
                                    dependents, cache_dir=cache_dir,
                                    fingerprint=fingerprint))
    n = pool.size
    # Reentrant: a reply that fails to apply degrades its loop through
    # degrade() while the lock is still held.
    apply_lock = threading.RLock()
    # next() on a count is one C call, atomic under the GIL: the i-th
    # dispatch leaves len(pending) - i loops queued.
    dispatched = itertools.count(1)
    # Per slot: seconds inside requests, whether a worker was ever
    # spawned, and when its feeder last finished a loop.
    busy = [0.0] * n
    spawned = [False] * n
    started = time.perf_counter()
    finished = [started] * n
    tracer.gauge("scheduler.queue_depth", len(pending))

    def degrade(index: int, loop, key: str, status: str, detail: str,
                elapsed: float, *, phase: str = "worker",
                worker_id=None) -> None:
        with apply_lock:
            if tracer.enabled:
                extra = ({"worker_id": worker_id}
                         if worker_id is not None else {})
                tracer.emit("worker", loop=key, status=status,
                            dur_s=elapsed, detail=detail, **extra)
            slots[index] = engine.degraded_analysis(
                loop, f"shard {detail}", phase=phase)
            outcomes[index] = WorkerOutcome(key, status, detail, elapsed)

    def apply(k: int, client: WorkerClient, index: int, loop, key: str,
              reply: dict, elapsed: float) -> None:
        wid = client.worker_id
        with apply_lock:
            try:
                analysis = _apply_reply(
                    engine, cache, loop, key, reply, worker_id=wid,
                    clock=client.clock, window=client.last_window)
            except WorkerGone as exc:
                # It answered garbage: a fresh worker serves the next
                # shard.
                pool.drop(k)
                degrade(index, loop, key, exc.status, exc.detail,
                        elapsed, worker_id=wid)
                return
            if tracer.enabled:
                tracer.emit("worker", loop=key, status="ok",
                            dur_s=elapsed, worker_id=wid)
            slots[index] = analysis
            outcomes[index] = WorkerOutcome(key, "ok", elapsed=elapsed)

    def dispatch(k: int, index: int, loop, enqueued: float) -> None:
        wid = f"w{k}"
        wait_s = time.perf_counter() - enqueued
        tracer.gauge("scheduler.queue_depth",
                     len(pending) - next(dispatched))
        tracer.counter("scheduler.dispatched")
        tracer.observe("scheduler.queue_wait_seconds", wait_s)
        key = engine.loop_key(loop)
        if tracer.enabled:
            tracer.emit("queue_wait", loop=key, wait_s=wait_s,
                        worker_id=wid)
        if index % n != k:
            # Work-stealing made visible: under a balanced round-robin
            # this feeder would serve loops with index ≡ k (mod pool
            # size); any other pull means it out-ran a sibling and took
            # its share.
            tracer.counter("scheduler.steals")
            if tracer.enabled:
                tracer.emit("steal", loop=key, worker_id=wid)
        deadline = engine.deadline
        if deadline is not None and deadline.expired():
            degrade(index, loop, key, "timeout",
                    "run deadline expired before the shard was "
                    "dispatched", 0.0, phase="deadline")
            return
        elapsed = 0.0
        try:
            if spawned[k] and not pool.is_live(k):
                # not the lazy first spawn: this slot's worker died
                # earlier and a fresh one takes over
                tracer.counter("scheduler.respawns")
            client = pool.client(k, tracer=tracer)
            spawned[k] = True
            budget = config.kill_timeout
            if deadline is not None:
                budget = min(budget, max(deadline.remaining(), 0.0)
                             + DEADLINE_GRACE)
            with tracer.span("shard.request", loop=key, worker_id=wid):
                # Timed from send to reply: the worker's spawn and init
                # above never count as time spent on this loop.
                start = time.perf_counter()
                try:
                    reply = client.request(
                        {"op": "analyze", "loop_key": key,
                         "deadline_remaining": (deadline.remaining()
                                                if deadline is not None
                                                else None)},
                        timeout=budget)
                finally:
                    elapsed = time.perf_counter() - start
                    busy[k] += elapsed
                if reply.get("error") is None:
                    apply(k, client, index, loop, key, reply, elapsed)
                    return
        except WorkerGone as exc:
            pool.drop(k)  # a fresh worker serves the next shard
            if tracer.enabled:
                # The worker died holding its event buffer: at least
                # this shard's telemetry never arrived.
                tracer.counter("telemetry.dropped_events")
            degrade(index, loop, key, exc.status, exc.detail, elapsed,
                    worker_id=wid)
            return
        # error reply: a worker's PrimalRaceError stops the whole pool;
        # any other error folds its telemetry, then degrades the loop.
        error = reply["error"]
        if error.get("type") == "PrimalRaceError":
            raise PrimalRaceError(error.get("message", ""))
        with apply_lock:
            _fold_worker_events(tracer, reply.get("events"), worker_id=wid,
                                clock=client.clock,
                                window=client.last_window, partial=True)
        degrade(index, loop, key, "crash",
                f"worker error: {error.get('message', '')}", elapsed,
                worker_id=wid)

    def serve(k: int, item: tuple) -> None:
        try:
            dispatch(k, *item)
        finally:
            finished[k] = time.perf_counter()

    try:
        pool.run(pending, serve, name="shard")
    finally:
        for k in range(n):
            tracer.counter(f"worker.w{k}.busy_seconds", busy[k])
            tracer.counter(f"worker.w{k}.idle_seconds",
                           max(finished[k] - started - busy[k], 0.0))
    return slots, outcomes
