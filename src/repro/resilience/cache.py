"""The ``--cache-dir`` run-state store (schema ``repro-cache/1``):
the cross-run verdict cache and the crash-recovery record of
``analyze``.

``analyze --cache-dir DIR`` persists settled analysis results *across*
invocations: run the same analysis twice and the second run answers
its questions from disk instead of the solver. A run that was killed,
timed out, or degraded recovers the same way — rerun the same command
with the same ``--cache-dir``. The store is a directory of
per-invocation journal files —

    <cache_dir>/<fingerprint>.jsonl

— where the fingerprint is :func:`~repro.resilience.journal.
journal_fingerprint` of (source, head, in/out variables, engine
flags). Keying the *file name* on the fingerprint is what makes the
cache sound: an edited source, a different head, or any flag change
produces a different fingerprint, so a stale entry can never be
replayed into a mismatched analysis. Resource flags (deadline,
question timeout, escalation) are deliberately outside the
fingerprint: a SAT/UNSAT answer is valid under any resource budget,
so rerunning with a longer budget is the recovery flow.

Each cache file reuses the journal codec (CRC-per-line JSONL, torn
tails dropped on read) and the journal record shapes:

``meta``       schema ``repro-cache/1`` + the invocation fingerprint.
``question``   one *decided* exploitation question (SAT/UNSAT only —
               a timeout or budget UNKNOWN may resolve on a retry and
               is therefore never stored).
``verdict`` /  a fully settled, *clean* loop: not degraded, no
``loop_done``  timeouts, no UNKNOWNs, no solver failures, and no
               answers itself replayed from the store. Clean loops
               replay wholesale — full counters restored — so a
               warm ``analyze --json`` is byte-identical (modulo
               wall-clock timers) to the cold run that populated it.

Question records are the insurance layer: a run that crashes mid-loop
still leaves its decided questions behind, and the next run answers
those from disk even though the loop never settled. Degraded or
timed-out loops are never stored wholesale, so the next run analyzes
them again. Every record is fsync'd as it is written, so a ``kill -9``
loses at most the record in flight.

**Writers are exclusive.** A writable :class:`VerdictCache` takes an
advisory ``flock`` on ``<fingerprint>.jsonl.lock`` for its whole
lifetime; a second concurrent writer on the same fingerprint cannot
append (it degrades to read-only lookups with a warning) — two
processes can therefore never interleave contradictory records into
one file. The ``analyze --jobs`` pool workers open the file
``readonly`` for question lookups (no lock — the CRC codec drops any
torn tail they race against); the decided answers a read-only store
receives are kept in :attr:`VerdictCache.received` and shipped back
to the parent, the single writer, which stores them.

**The loader never takes a side.** Files written before the lock
existed (or through byte corruption) can carry two records for the
same key with different answers. :func:`reconcile_records` squashes
exact duplicates silently, but a genuinely *conflicting* key — same
(loop, ctx, question) with different results, or a loop with two
disagreeing ``loop_done``/``verdict`` payloads — is logged and dropped
entirely, so the affected question/loop is re-asked instead of
silently trusting whichever record happened to land last.

:class:`CacheStore` is the directory-level manager: it enforces a
size budget with LRU eviction (recency = file mtime, bumped on every
valid open), and compacts files offline — squashing duplicates and
surfacing conflicts as :class:`CacheConflictError` — using the
journal's write-temp + fsync + atomic-rename idiom so a crash
mid-compaction leaves the original file intact.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Dict, List, Optional, Tuple

from .journal import JournalWriter, _encode_line, read_journal

try:  # advisory locking is POSIX-only; elsewhere writers go unlocked
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

logger = logging.getLogger(__name__)

CACHE_SCHEMA = "repro-cache/1"

#: Suffix of the advisory writer-lock file next to each cache file.
LOCK_SUFFIX = ".lock"

#: Suffix of the compaction scratch file (never matched by the store's
#: ``*.jsonl`` listing, so a crash mid-compaction leaves no half-state
#: a loader could pick up).
COMPACT_SUFFIX = ".compact.tmp"


class CacheStoreError(RuntimeError):
    """The store cannot perform the requested maintenance operation."""


class CacheConflictError(CacheStoreError):
    """A cache file carries contradictory records for the same key —
    the fossil of two unlocked concurrent writers. Compaction refuses
    to pick a winner unless explicitly told to drop the conflicting
    keys (they are then re-asked on the next analysis)."""

    def __init__(self, path: str, conflicts: List[str]) -> None:
        self.path = path
        self.conflicts = list(conflicts)
        super().__init__(
            f"{path}: {len(conflicts)} conflicting record key(s): "
            + "; ".join(conflicts))


class FileLock:
    """A non-blocking advisory ``flock`` on one lock file.

    ``flock`` locks are per open-file-description, so two
    :class:`VerdictCache` instances conflict even inside one process —
    exactly the contention the lock exists to detect. On platforms
    without ``fcntl`` the lock degrades to a no-op (documented:
    concurrent writers are only excluded on POSIX)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: Optional[int] = None

    def acquire(self) -> bool:
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return True
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None

    @property
    def held(self) -> bool:
        return fcntl is None or self._fd is not None


def _record_key(record: dict) -> Optional[tuple]:
    """The identity under which *record* may legally appear once."""
    kind = record.get("kind")
    if kind == "question":
        return ("question", record.get("loop"), record.get("ctx"),
                record.get("q"))
    if kind == "loop_done":
        return ("loop_done", record.get("loop"))
    if kind == "verdict":
        return ("verdict", record.get("loop"), record.get("array"))
    return None


def reconcile_records(records: List[dict], *, path: str = "<cache>",
                      ) -> Tuple[List[dict], int, List[str]]:
    """``(kept, duplicates, conflicts)`` of a recovered record list.

    Exact duplicate records (same key, byte-identical payload — e.g. a
    worker-replayed loop journaled twice) squash to one. A key whose
    records *disagree* is a conflict: every record under it is dropped
    — for a conflicting ``loop_done``/``verdict`` the loop's wholesale
    replay is withdrawn entirely (its question records survive on
    their own keys) — and the conflict is reported, never resolved by
    taking the last writer."""
    canonical: Dict[tuple, str] = {}
    conflicts: List[str] = []
    conflicting_keys: set = set()
    conflicting_loops: set = set()
    duplicates = 0
    for record in records:
        key = _record_key(record)
        if key is None:
            continue
        canon = json.dumps(record, sort_keys=True)
        prev = canonical.get(key)
        if prev is None:
            canonical[key] = canon
        elif prev == canon:
            duplicates += 1
        elif key not in conflicting_keys:
            conflicting_keys.add(key)
            conflicts.append(":".join(str(part) for part in key))
            if key[0] in ("loop_done", "verdict"):
                conflicting_loops.add(record.get("loop"))
    kept: List[dict] = []
    emitted: set = set()
    for record in records:
        key = _record_key(record)
        if key is None:
            kept.append(record)
            continue
        if key in emitted or key in conflicting_keys:
            continue
        if key[0] in ("loop_done", "verdict") \
                and record.get("loop") in conflicting_loops:
            continue
        emitted.add(key)
        kept.append(record)
    if conflicts:
        logger.warning(
            "verdict cache %s holds conflicting records for %d key(s) "
            "(%s): dropping them so they are re-asked — likely two "
            "unlocked concurrent writers; run 'repro cache compact "
            "--drop-conflicts' to repair the file",
            path, len(conflicts), ", ".join(conflicts[:5]))
    return kept, duplicates, conflicts


class VerdictCache:
    """One invocation's slice of the run-state store.

    ``readonly=True`` opens the file for lookups only (the serve-worker
    mode): nothing is written, ``store_question`` keeps its decided
    records in :attr:`received` for the caller to forward, and a
    missing or damaged file is simply an empty cache. A writable cache
    creates ``cache_dir`` on demand, takes the fingerprint's advisory
    writer lock — if another writer holds it, this cache degrades to
    read-only lookups (``lock_contended``) instead of corrupting the
    file — and appends through a
    :class:`~repro.resilience.journal.JournalWriter`, which fsyncs
    every record: the store is the crash-recovery layer of ``analyze``.
    """

    def __init__(self, cache_dir: str, fingerprint: str, *,
                 readonly: bool = False) -> None:
        self.cache_dir = cache_dir
        self.fingerprint = fingerprint
        self.path = os.path.join(cache_dir, f"{fingerprint}.jsonl")
        # Lookup hits / misses / fresh stores, for the end-of-run
        # summary and the ``cache.*`` metric counters.
        self.question_hits = 0
        self.question_misses = 0
        self.loop_hits = 0
        self.loop_misses = 0
        self.question_stores = 0
        self.loop_stores = 0
        #: True when a writable open found another live writer and
        #: degraded to read-only lookups.
        self.lock_contended = False
        self._lock: Optional[FileLock] = None
        if not readonly:
            os.makedirs(cache_dir, exist_ok=True)
            lock = FileLock(self.path + LOCK_SUFFIX)
            if lock.acquire():
                self._lock = lock
            else:
                logger.warning(
                    "verdict cache %s is held by another writer; this "
                    "run degrades to read-only lookups (nothing will "
                    "be stored)", self.path)
                self.lock_contended = True
                readonly = True
        self.readonly = readonly
        #: Decided question records a read-only store was asked to
        #: keep; a serve worker ships them to the parent, which stores
        #: them.
        self.received: List[dict] = []
        self._loops: Dict[str, dict] = {}
        self._verdicts: Dict[str, List[dict]] = {}
        self._questions: Dict[Tuple[str, str, str],
                              Tuple[str, Optional[Dict[str, int]]]] = {}
        #: CRC-damaged lines the loader truncated away on read.
        self.dropped_lines = 0
        valid = self._load()
        self._writer: Optional[JournalWriter] = None
        if not readonly:
            # A damaged/foreign file is abandoned (truncated), not
            # appended to: its records failed validation above.
            self._writer = JournalWriter(
                self.path, append=valid,
                meta={"schema": CACHE_SCHEMA, "fingerprint": fingerprint})
        elif valid:
            # LRU recency for the store's size budget: any valid open
            # counts as a use (writable opens touch mtime by writing).
            try:
                os.utime(self.path, None)
            except OSError:  # pragma: no cover - unwritable directory
                pass

    def _load(self) -> bool:
        """Index the existing cache file; returns False when the file
        is absent or its meta does not match this invocation.
        Duplicate records squash; conflicting keys are logged and
        dropped (:func:`reconcile_records`) — never last-writer-wins.
        """
        self.conflicts = 0
        self.duplicate_records = 0
        if not os.path.exists(self.path):
            return False
        meta, records, dropped = read_journal(self.path)
        if meta is None or meta.get("schema") != CACHE_SCHEMA \
                or meta.get("fingerprint") != self.fingerprint:
            logger.warning("verdict cache %s has a bad or foreign header; "
                           "ignoring its contents", self.path)
            return False
        self.dropped_lines = dropped
        if dropped:
            logger.info("verdict cache %s: dropped %d damaged line(s)",
                        self.path, dropped)
        records, self.duplicate_records, conflict_keys = \
            reconcile_records(records, path=self.path)
        self.conflicts = len(conflict_keys)
        for record in records:
            kind = record.get("kind")
            loop = record.get("loop")
            if not isinstance(loop, str):
                continue
            if kind == "loop_done":
                self._loops[loop] = record
            elif kind == "verdict":
                self._verdicts.setdefault(loop, []).append(record)
            elif kind == "question" \
                    and record.get("result") in ("sat", "unsat"):
                # Only decided answers are settled; an UNKNOWN may
                # resolve on a retry and is therefore always re-asked.
                key = (loop, str(record.get("ctx")), str(record.get("q")))
                self._questions[key] = (record["result"],
                                        record.get("witness"))
        return True

    # ------------------------------------------------------------ lookups
    @property
    def settled_loops(self) -> int:
        return len(self._loops)

    @property
    def settled_questions(self) -> int:
        return len(self._questions)

    def loop_done(self, loop_key: str) -> Optional[dict]:
        """The settled record of a clean cached loop, or None (counted
        as a loop miss — the engine probes exactly once per open
        loop)."""
        done = self._loops.get(loop_key)
        if done is None:
            self.loop_misses += 1
        return done

    def verdicts(self, loop_key: str) -> List[dict]:
        return self._verdicts.get(loop_key, [])

    def question(self, loop_key: str, ctx_path: str, question: str,
                 ) -> Optional[Tuple[str, Optional[Dict[str, int]]]]:
        """A decided (SAT/UNSAT) answer, or None. Bumps the hit
        counter — call only when the answer will actually be used."""
        hit = self._questions.get((loop_key, ctx_path, question))
        if hit is not None:
            self.question_hits += 1
        else:
            self.question_misses += 1
        return hit

    # ------------------------------------------------------------- stores
    def record(self, kind: str, **fields) -> None:
        """Append one record (no-op when readonly)."""
        if self._writer is not None:
            self._writer.record(kind, **fields)

    def store_question(self, loop_key: str, array: str, ctx_path: str,
                       question: str, result: str,
                       witness: Optional[Dict[str, int]] = None) -> None:
        """Persist one decided answer. UNKNOWNs are rejected here, not
        at the call site: *never* caching an undecided answer is the
        cache's soundness rule, so it is enforced centrally. A
        read-only store keeps the record in :attr:`received` instead."""
        if result not in ("sat", "unsat"):
            return
        key = (loop_key, ctx_path, question)
        if key in self._questions:
            return
        record = {"loop": loop_key, "array": array, "ctx": ctx_path,
                  "q": question, "result": result}
        if result == "sat" and witness is not None:
            record["witness"] = witness
        if self.readonly:
            self.received.append(record)
            return
        self.record("question", **record)
        self._questions[key] = (result, witness)
        self.question_stores += 1

    def store_loop(self, loop_key: str, done: dict,
                   verdicts: List[dict]) -> None:
        """Persist one *clean* loop's full record set (the caller vouches
        for cleanliness — see :attr:`~repro.formad.engine.LoopAnalysis.
        cacheable`). Degraded records are refused outright: a safeguard
        fallback is not settled knowledge."""
        if self.readonly or done.get("degraded"):
            return
        if loop_key in self._loops:
            return
        verdict_records = [
            dict({k: v for k, v in verdict.items() if k != "kind"},
                 loop=loop_key)
            for verdict in verdicts]
        done_record = dict({k: v for k, v in done.items() if k != "kind"},
                           loop=loop_key)
        for record in verdict_records:
            self.record("verdict", **record)
        self.record("loop_done", **done_record)
        self._loops[loop_key] = dict(done_record, kind="loop_done")
        self._verdicts.setdefault(loop_key, []).extend(verdict_records)
        self.loop_stores += 1

    # ------------------------------------------------------------ summary
    @property
    def hits(self) -> int:
        """Total replay hits, loop-wholesale and per-question — the
        one-number health signal ``summary_data`` exports as ``hits``
        (and the CLI as the ``cache.hits`` metric counter)."""
        return self.question_hits + self.loop_hits

    def summary_data(self) -> dict:
        """The structured end-of-run summary: the ``cache_summary``
        trace event's payload and ``analyze --json``'s ``cache`` key."""
        return {"path": self.path,
                "hits": self.hits,
                "loop_hits": self.loop_hits,
                "question_hits": self.question_hits,
                "loop_misses": self.loop_misses,
                "question_misses": self.question_misses,
                "loop_stores": self.loop_stores,
                "question_stores": self.question_stores,
                "conflicts": self.conflicts,
                "dropped_lines": self.dropped_lines}

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._lock is not None:
            self._lock.release()
            self._lock = None


class CacheStore:
    """The directory-level manager of a ``--cache-dir`` store.

    One store = one directory of per-fingerprint cache files plus
    their writer-lock files. The store adds the lifecycle operations a
    bag of append-only files lacks:

    * :meth:`evict` — LRU eviction by fingerprint file until the
      store fits ``max_bytes`` (recency = mtime; files whose writer
      lock is currently held are never evicted);
    * :meth:`compact` — offline rewrite squashing duplicate records
      and *detecting* conflicting verdicts
      (:class:`CacheConflictError`) instead of last-writer-wins, via
      write-temp + fsync + atomic rename so a crash mid-compaction
      leaves a loadable store.
    """

    def __init__(self, cache_dir: str,
                 max_bytes: Optional[int] = None) -> None:
        self.cache_dir = cache_dir
        self.max_bytes = max_bytes

    # ------------------------------------------------------------- access
    def usage(self) -> List[Tuple[str, int, float]]:
        """``(fingerprint, bytes, mtime)`` per cache file, least
        recently used first."""
        entries: List[Tuple[str, int, float]] = []
        if not os.path.isdir(self.cache_dir):
            return entries
        for name in os.listdir(self.cache_dir):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover - raced deletion
                continue
            entries.append((name[:-len(".jsonl")], stat.st_size,
                            stat.st_mtime))
        entries.sort(key=lambda entry: (entry[2], entry[0]))
        return entries

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.usage())

    def stats(self) -> dict:
        usage = self.usage()
        return {"cache_dir": self.cache_dir,
                "files": len(usage),
                "total_bytes": sum(size for _, size, _ in usage),
                "max_bytes": self.max_bytes}

    # ----------------------------------------------------------- eviction
    def evict(self, max_bytes: Optional[int] = None) -> List[str]:
        """Delete least-recently-used fingerprint files until the store
        fits the byte budget. Files whose writer lock is currently held
        are in live use and are skipped. Returns the evicted
        fingerprints, oldest first."""
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            return []
        usage = self.usage()
        total = sum(size for _, size, _ in usage)
        evicted: List[str] = []
        for fingerprint, size, _ in usage:
            if total <= budget:
                break
            path = os.path.join(self.cache_dir, f"{fingerprint}.jsonl")
            lock = FileLock(path + LOCK_SUFFIX)
            if not lock.acquire():
                logger.info("cache evict: %s is in live use; skipped",
                            path)
                continue
            try:
                try:
                    os.unlink(path)
                except FileNotFoundError:  # pragma: no cover - raced
                    continue
                try:
                    os.unlink(path + LOCK_SUFFIX)
                except OSError:  # pragma: no cover
                    pass
            finally:
                lock.release()
            total -= size
            evicted.append(fingerprint)
            logger.info("cache evict: removed %s (%d bytes)", path, size)
        return evicted

    # --------------------------------------------------------- compaction
    def compact(self, fingerprint: Optional[str] = None, *,
                drop_conflicts: bool = False) -> List[dict]:
        """Rewrite cache files without their duplicate records.

        Conflicting keys (contradictory verdicts for the same
        question or loop) raise :class:`CacheConflictError` unless
        ``drop_conflicts`` is set, in which case they are removed so
        the next analysis re-asks them. Each file is rewritten under
        its writer lock via the journal's write-temp + fsync + atomic
        rename idiom: a crash at any point leaves either the old or
        the new file, both loadable. Returns one summary dict per
        compacted file."""
        fingerprints = ([fingerprint] if fingerprint is not None
                        else [fp for fp, _, _ in self.usage()])
        summaries: List[dict] = []
        for fp in fingerprints:
            path = os.path.join(self.cache_dir, f"{fp}.jsonl")
            if not os.path.exists(path):
                raise CacheStoreError(f"no cache file for fingerprint "
                                      f"{fp!r} in {self.cache_dir}")
            lock = FileLock(path + LOCK_SUFFIX)
            if not lock.acquire():
                raise CacheStoreError(
                    f"{path} is held by a live writer; compact later")
            try:
                summaries.append(self._compact_one(fp, path,
                                                   drop_conflicts))
            finally:
                lock.release()
        return summaries

    def _compact_one(self, fingerprint: str, path: str,
                     drop_conflicts: bool) -> dict:
        meta, records, dropped = read_journal(path)
        if meta is None or meta.get("schema") != CACHE_SCHEMA:
            raise CacheStoreError(f"{path} has no valid repro-cache/1 "
                                  f"header; refusing to compact")
        kept, duplicates, conflicts = reconcile_records(records, path=path)
        if conflicts and not drop_conflicts:
            raise CacheConflictError(path, conflicts)
        tmp = path + COMPACT_SUFFIX
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_encode_line(meta))
            for record in kept:
                fh.write(_encode_line(record))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dirfd = os.open(os.path.dirname(os.path.abspath(path)),
                        os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
        return {"fingerprint": fingerprint,
                "records_before": len(records),
                "records_after": len(kept),
                "duplicates_squashed": duplicates,
                "conflicts_dropped": len(conflicts),
                "damaged_lines_dropped": dropped}
