"""The replayable regression corpus of minimized soundness failures.

Every violation ``repro audit`` (:mod:`repro.audit.campaign`) confirms is
ddmin-minimized and committed here as one small JSON file — the
*complete* recipe for reproducing the failure: the minimized
:class:`~repro.audit.generator.CaseSpec`, the chaos rate and seed (for
fault-injection failures), and the violation kinds observed. Files are
**content-addressed** (the name is a truncated SHA-256 of the
canonical entry JSON), so committing the same failure twice is a
no-op, renames cannot desynchronize name from content, and two
audits on two machines produce byte-identical corpus entries.

``repro corpus replay`` re-runs every entry as an ordinary test gate:
an entry that still reproduces its violation exits non-zero (the bug
is still live); once the engine is fixed, the entry passes and stays
in the corpus forever as a regression test. An empty corpus replays
to success, so CI can run the gate unconditionally.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..resilience.journal import _canonical
from .generator import CaseSpec, spec_from_json

#: Corpus entry schema identifier (bump on incompatible change).
CORPUS_SCHEMA = "repro-corpus/1"


@dataclass(frozen=True)
class CorpusEntry:
    """One minimized, reproducible soundness failure."""

    case: str                 # audit case id, e.g. "17" or "17@0.5"
    index: int                # generator case index (oracle seeds)
    rate: float               # chaos rate (0.0 = clean differential case)
    seed: int                 # run seed (chaos fault schedule)
    family: str
    kinds: Tuple[str, ...]    # violation kinds the case exhibited
    spec: CaseSpec            # the minimized spec

    def to_json(self) -> dict:
        return {"schema": CORPUS_SCHEMA, "case": self.case,
                "index": self.index, "rate": self.rate, "seed": self.seed,
                "family": self.family, "kinds": sorted(self.kinds),
                "spec": self.spec.to_json()}


def entry_from_json(doc: dict) -> CorpusEntry:
    if doc.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"not a {CORPUS_SCHEMA} entry: "
                         f"schema={doc.get('schema')!r}")
    return CorpusEntry(case=str(doc["case"]), index=int(doc["index"]),
                       rate=float(doc["rate"]), seed=int(doc["seed"]),
                       family=str(doc["family"]),
                       kinds=tuple(str(k) for k in doc["kinds"]),
                       spec=spec_from_json(doc["spec"]))


def entry_name(entry: CorpusEntry) -> str:
    """Content address: the file name is a pure function of the entry."""
    digest = hashlib.sha256(
        _canonical(entry.to_json()).encode("utf-8")).hexdigest()
    return f"{digest[:16]}.json"


def commit_entry(corpus_dir: str, entry: CorpusEntry) -> Tuple[str, bool]:
    """Write *entry* into *corpus_dir*; returns ``(path, created)``.

    Idempotent (the address is the content) and crash-safe (write a
    temp file in the same directory, then :func:`os.replace`): a kill
    mid-commit leaves either no entry or a complete one, never a
    half-written JSON the replay gate would choke on.
    """
    os.makedirs(corpus_dir, exist_ok=True)
    name = entry_name(entry)
    path = os.path.join(corpus_dir, name)
    if os.path.exists(path):
        return path, False
    payload = json.dumps(entry.to_json(), indent=2, sort_keys=True) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path, True


def load_corpus(corpus_dir: str) -> List[Tuple[str, CorpusEntry]]:
    """Every ``*.json`` entry of *corpus_dir*, sorted by file name
    (deterministic replay order). A missing directory is an empty
    corpus; a malformed entry raises — a corrupt regression corpus
    must fail the gate loudly, not shrink it silently."""
    if not os.path.isdir(corpus_dir):
        return []
    out: List[Tuple[str, CorpusEntry]] = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out.append((path, entry_from_json(doc)))
    return out


@dataclass
class ReplayResult:
    path: str
    entry: CorpusEntry
    #: Violation kinds the replay observed (possibly beyond the
    #: recorded ones — the engine got worse in a new way).
    found: Tuple[str, ...]

    @property
    def reproduced(self) -> bool:
        return bool(set(self.entry.kinds) & set(self.found))


def replay_entry(entry: CorpusEntry, *,
                 case_timeout: Optional[float] = None) -> Tuple[str, ...]:
    """Re-run one corpus entry; returns the violation kinds observed.

    Clean entries (rate 0) re-run the full differential oracle stack;
    chaos entries re-run the fault-injection check with the recorded
    rate and seed — both deterministic, so replay either reproduces
    the recorded kinds or proves the bug fixed.
    """
    # Imported lazily: campaign imports this module for commits.
    from .campaign import run_unit_inline
    result = run_unit_inline(entry.spec, index=entry.index,
                             rate=entry.rate, seed=entry.seed,
                             case_timeout=case_timeout)
    return tuple(sorted({v["kind"] for v in result["violations"]}))


def replay_corpus(corpus_dir: str, *,
                  case_timeout: Optional[float] = None,
                  progress: Optional[Callable[[ReplayResult], None]] = None,
                  ) -> List[ReplayResult]:
    """Replay every entry of *corpus_dir* (the ``repro corpus replay``
    gate). The caller decides the exit status: any
    :attr:`ReplayResult.reproduced` entry means a recorded bug is
    still live."""
    results: List[ReplayResult] = []
    for path, entry in load_corpus(corpus_dir):
        found = replay_entry(entry, case_timeout=case_timeout)
        result = ReplayResult(path, entry, found)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def format_replay(results: List[ReplayResult]) -> str:
    lines = [f"corpus replay: {len(results)} entr"
             f"{'y' if len(results) == 1 else 'ies'}"]
    live = [r for r in results if r.reproduced]
    for r in results:
        status = "REPRODUCED" if r.reproduced else "fixed"
        lines.append(f"  [{status:>10}] {os.path.basename(r.path)} "
                     f"case {r.entry.case} ({r.entry.family}): "
                     f"recorded {','.join(r.entry.kinds)}"
                     + (f" found {','.join(r.found)}" if r.found else ""))
    if live:
        lines.append(f"FAIL: {len(live)} recorded bug(s) still reproduce")
    else:
        lines.append("OK: no recorded bug reproduces (corpus is all "
                     "regression-fixed)" if results else
                     "OK: empty corpus")
    return "\n".join(lines)
