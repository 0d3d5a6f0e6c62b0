"""The CRC'd JSONL record codec and its append-only writer.

Two stores share this module: the ``--cache-dir`` run-state store
(:mod:`~repro.resilience.cache`, schema ``repro-cache/1``) and the
``repro audit --journal`` stream journal (:mod:`~repro.audit.campaign`,
schema ``repro-audit/2``). Each line carries a CRC-32 of its
canonically-serialized payload, so every line is independently
verifiable. The writer flushes and ``fsync``\\ s each record before
returning — a ``kill -9`` therefore loses at most the one record being
written, and that half-line fails its checksum on recovery instead of
poisoning the file.

Recovery (:func:`read_journal`) keeps every line that parses *and*
checksums, drops damaged ones, and reports how many were dropped; a
trailing partial line is additionally truncated before appending so a
continued file stays line-aligned.

The store's loop records come from :func:`serialize_analysis` and go
back through its inverse :func:`rebuild_analysis`; the shard workers
ship the same shape over the wire.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from typing import List, Optional, Sequence, Tuple


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
    """Thread-safe append-only writer with per-record durability: every
    record is flushed and ``fsync``\\ ed before :meth:`record` returns.

    ``append=True`` continues an existing file after its last intact
    record (a torn tail is truncated first); otherwise the file starts
    fresh. The writer is the file's only writer — shard workers ship
    their records back for the parent to write here.
    """

    def __init__(self, path: str, *, meta: Optional[dict] = None,
                 append: bool = False) -> None:
        self.path = path
        self._lock = threading.Lock()
        if append:
            if os.path.exists(path):
                _truncate_partial_tail(path)
        else:
            open(path, "w").close()  # truncate
        self._fh = open(path, "a", encoding="utf-8")
        if meta is not None and os.path.getsize(path) == 0:
            self._write(dict(meta, kind="meta"))

    # ------------------------------------------------------------------
    def _write(self, record: dict) -> None:
        self._fh.write(_encode_line(record))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(self, kind: str, **fields) -> None:
        with self._lock:
            self._write(dict(fields, kind=kind))

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()


def serialize_analysis(loop_key: str, analysis) -> dict:
    """One settled :class:`~repro.formad.engine.LoopAnalysis` as
    ``{"done": ..., "verdicts": [...]}`` — the store's ``loop_done`` and
    ``verdict`` record payloads, and the per-loop wire shape of shard
    replies. :func:`rebuild_analysis` reverses it."""
    from ..formad.engine import AnalysisStats

    stats = {name: getattr(analysis.stats, name)
             for name in AnalysisStats.__dataclass_fields__}
    return {
        "done": {
            "loop": loop_key,
            "stats": stats,
            "safe_writes": list(analysis.safe_write_expressions),
            "offending": list(analysis.offending_expressions),
            "degraded": analysis.degraded,
        },
        "verdicts": [
            {"array": v.array, "safe": v.safe,
             "pairs_total": v.pairs_total, "pairs_proven": v.pairs_proven,
             "reason": v.reason}
            for v in analysis.verdicts.values()
        ],
    }


def rebuild_analysis(loop, done: dict, verdicts: List[dict]):
    """Reconstruct a :class:`~repro.formad.engine.LoopAnalysis` from the
    ``done``/``verdicts`` payloads :func:`serialize_analysis` produced
    (a store replay or a shard reply)."""
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
                        degraded=bool(done.get("degraded", False)))
