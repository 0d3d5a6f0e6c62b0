"""The crash-safe verdict journal (schema ``repro-journal/1``).

An append-only JSONL file: one record per line, each line carrying a
CRC-32 of its canonically-serialized payload, so every line is
independently verifiable. The writer flushes and ``fsync``\\ s each
record before returning — a ``kill -9`` therefore loses at most the
one record being written, and that half-line fails its checksum on
recovery instead of poisoning the file.

Record kinds (all carry the structural loop key ``"<ordinal>:<var>"``,
never a process-local uid — uids are not stable across runs):

``meta``       header: schema, fingerprint of (source, head, in/out
               variables, engine flags). Resume refuses a journal whose
               fingerprint does not match the current invocation.
``question``   one settled exploitation question: context path,
               rendered question, result, SAT witness. Resume seeds
               the engine's question memo with the SAT/UNSAT ones.
``verdict``    FormAD's per-(loop, array) answer.
``loop_done``  the loop is fully analyzed: serialized counters,
               safe-write expressions. Resume skips such loops
               entirely and rebuilds the :class:`LoopAnalysis`.

Recovery (:func:`read_journal`) keeps every line that parses *and*
checksums, drops damaged ones, and reports how many were dropped; a
trailing partial line is additionally truncated before appending so a
resumed journal stays line-aligned. Rotation (:meth:`JournalWriter.
rotate`) compacts settled loops into their ``verdict``/``loop_done``
records via write-temp / fsync / atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

JOURNAL_SCHEMA = "repro-journal/1"


class JournalError(ValueError):
    """The journal cannot be used (bad header, wrong fingerprint)."""


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _encode_line(record: dict) -> str:
    payload = _canonical(record)
    crc = zlib.crc32(payload.encode("utf-8"))
    return json.dumps({"c": crc, "r": record}, sort_keys=True,
                      separators=(",", ":")) + "\n"


def _decode_line(line: str) -> Optional[dict]:
    """The record of one journal line, or None if damaged."""
    try:
        wrapper = json.loads(line)
        record = wrapper["r"]
        crc = wrapper["c"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(record, dict) or not isinstance(crc, int):
        return None
    if zlib.crc32(_canonical(record).encode("utf-8")) != crc:
        return None
    return record


def journal_fingerprint(source: str, head: str,
                        independents: Sequence[str],
                        dependents: Sequence[str],
                        flags: Optional[dict] = None) -> str:
    """Identity of one analysis invocation. Two runs with the same
    fingerprint ask the same questions in the same order, which is
    what makes replaying settled records sound."""
    doc = {"source_sha256": hashlib.sha256(source.encode("utf-8",
                                                         "replace"))
           .hexdigest(),
           "head": head,
           "independents": list(independents),
           "dependents": list(dependents),
           "flags": dict(flags or {})}
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def read_journal(path: str) -> Tuple[Optional[dict], List[dict], int]:
    """Recover ``(meta, records, dropped)`` from a journal file.

    Every intact line contributes; damaged lines (checksum or parse
    failure — a truncated tail, flipped bytes) are counted in
    *dropped*. ``meta`` is the first intact ``meta`` record, if any.
    """
    meta: Optional[dict] = None
    records: List[dict] = []
    dropped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        content = fh.read()
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line in lines:
        record = _decode_line(line)
        if record is None:
            if line.strip():
                dropped += 1
            continue
        if record.get("kind") == "meta" and meta is None:
            meta = record
        else:
            records.append(record)
    return meta, records, dropped


def _truncate_partial_tail(path: str) -> None:
    """Drop a trailing half-line so appends stay line-aligned."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    with open(path, "r+b") as fh:
        fh.truncate(cut)
        fh.flush()
        os.fsync(fh.fileno())


class JournalWriter:
    """Thread-safe append-only writer with per-record durability.

    **Writer contract** (also implemented by the worker-side record
    collector in :mod:`~repro.resilience.worker` and the verdict
    cache's writer in :mod:`~repro.resilience.cache`): a journal-like
    object exposes ``record(kind, **fields)``, ``close()``, and the
    boolean attribute ``appending`` — True when the writer continues an
    existing file, False when it started a fresh one. The engine's
    resume path *requires* ``appending`` (no duck-typed default): a
    settled loop replayed into a fresh journal must be re-emitted so
    the new journal is itself resumable, and a writer that cannot
    answer the question is a bug, not a "probably appending" guess.
    """

    def __init__(self, path: str, *, meta: Optional[dict] = None,
                 append: bool = False, fsync: bool = True) -> None:
        self.path = path
        self.appending = append
        self._fsync = fsync
        self._lock = threading.Lock()
        if append:
            if os.path.exists(path):
                _truncate_partial_tail(path)
        else:
            open(path, "w").close()  # truncate
        # Append mode: a resumed journal continues after its last intact
        # record. This writer is the file's only writer — shard workers
        # ship their records back for the parent to write here.
        self._fh = open(path, "a", encoding="utf-8")
        if meta is not None and os.path.getsize(path) == 0:
            self._write(dict(meta, kind="meta"))

    # ------------------------------------------------------------------
    def _write(self, record: dict) -> None:
        self._fh.write(_encode_line(record))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def record(self, kind: str, **fields) -> None:
        with self._lock:
            self._write(dict(fields, kind=kind))

    def rotate(self) -> None:
        """Compact in place: settled loops keep only their ``verdict``
        and ``loop_done`` records. Write-temp + fsync + atomic rename,
        so a crash during rotation leaves the old journal intact."""
        with self._lock:
            self._fh.flush()
            meta, records, _ = read_journal(self.path)
            done = {r["loop"] for r in records if r.get("kind") == "loop_done"}
            kept = [r for r in records
                    if not (r.get("kind") == "question"
                            and r.get("loop") in done)]
            tmp = self.path + ".rotate.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                if meta is not None:
                    fh.write(_encode_line(meta))
                for record in kept:
                    fh.write(_encode_line(record))
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            dirfd = os.open(os.path.dirname(os.path.abspath(self.path)),
                            os.O_RDONLY)
            try:
                os.fsync(dirfd)
            finally:
                os.close(dirfd)
            self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()


class ResumeState:
    """Indexed view of a recovered journal, keyed structurally."""

    def __init__(self, meta: Optional[dict], records: List[dict],
                 dropped: int = 0) -> None:
        self.meta = meta
        self.dropped = dropped
        self._loops: Dict[str, dict] = {}
        self._verdicts: Dict[str, List[dict]] = {}
        self._questions: Dict[Tuple[str, str, str],
                              Tuple[str, Optional[Dict[str, int]]]] = {}
        for record in records:
            kind = record.get("kind")
            loop = record.get("loop")
            if not isinstance(loop, str):
                continue
            if kind == "loop_done":
                self._loops[loop] = record
            elif kind == "verdict":
                self._verdicts.setdefault(loop, []).append(record)
            elif kind == "question":
                # Only decided answers are settled; UNKNOWN may resolve
                # on a retry and is therefore always re-asked.
                if record.get("result") in ("sat", "unsat"):
                    key = (loop, str(record.get("ctx")),
                           str(record.get("q")))
                    self._questions[key] = (record["result"],
                                            record.get("witness"))

    @classmethod
    def load(cls, path: str) -> "ResumeState":
        meta, records, dropped = read_journal(path)
        return cls(meta, records, dropped)

    def check_fingerprint(self, fingerprint: str) -> None:
        """Refuse to resume a journal written by a different
        invocation (other source, flags, or variable sets)."""
        if self.meta is None:
            raise JournalError("journal has no intact meta record; "
                               "cannot verify it matches this invocation")
        if self.meta.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(f"journal schema "
                               f"{self.meta.get('schema')!r}, expected "
                               f"{JOURNAL_SCHEMA}")
        if self.meta.get("fingerprint") != fingerprint:
            raise JournalError(
                "journal fingerprint does not match this invocation "
                "(different source file, head, variables, or analysis "
                "flags); refusing to replay its verdicts")

    # ------------------------------------------------------------------
    @property
    def settled_loops(self) -> int:
        return len(self._loops)

    @property
    def settled_questions(self) -> int:
        return len(self._questions)

    def loop_done(self, loop_key: str) -> Optional[dict]:
        return self._loops.get(loop_key)

    def verdicts(self, loop_key: str) -> List[dict]:
        return self._verdicts.get(loop_key, [])

    def question(self, loop_key: str, ctx_path: str, question: str,
                 ) -> Optional[Tuple[str, Optional[Dict[str, int]]]]:
        return self._questions.get((loop_key, ctx_path, question))


def rebuild_analysis(loop, done: dict, verdicts: List[dict], *,
                     resumed: bool = True):
    """Reconstruct a :class:`~repro.formad.engine.LoopAnalysis` from a
    settled loop's journal records (the ``--resume`` fast path, and —
    with ``resumed=False`` — the shard workers' and the daemon's result
    channel, which reuse the same record shapes)."""
    from ..formad.engine import AnalysisStats, ArrayVerdict, LoopAnalysis
    stats = AnalysisStats()
    known = set(AnalysisStats.__dataclass_fields__)
    for name, value in (done.get("stats") or {}).items():
        if name in known:
            setattr(stats, name, value)
    rebuilt = {}
    for record in verdicts:
        rebuilt[record["array"]] = ArrayVerdict(
            array=record["array"], safe=bool(record["safe"]),
            pairs_total=int(record.get("pairs_total", 0)),
            pairs_proven=int(record.get("pairs_proven", 0)),
            reason=str(record.get("reason", "")))
    return LoopAnalysis(loop, rebuilt, stats,
                        list(done.get("safe_writes", [])),
                        list(done.get("offending", [])),
                        degraded=bool(done.get("degraded", False)),
                        resumed=resumed)
