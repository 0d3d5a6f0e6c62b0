"""Crash-safe soundness campaigns: the audit at corpus scale.

``repro audit`` runs dozens of differential cases inline; a *campaign*
(``repro campaign``) streams thousands of generated
:class:`~repro.audit.generator.CaseSpec` units — one clean differential
case per index plus one fault-injection case per chaos rate — across
the persistent :class:`~repro.resilience.shards.WorkerPool`, one
subprocess-contained case at a time. The design goals, in order:

* **Nothing stalls the campaign.** Every case runs in a serve worker
  under a per-case deadline; a hung oracle is SIGKILLed by the request
  timeout, a crashed worker is respawned, and the case retries with
  bounded exponential backoff before settling as a contained
  ``unknown``. The campaign always finishes.
* **Nothing is lost to kill -9.** Every settled case is appended to a
  CRC'd JSONL journal (schema ``repro-campaign/1``, the PR-4 journal
  machinery) before the next case dispatches, so an interrupted
  campaign loses at most the cases in flight, and rerunning the same
  command on the same ``--journal`` skips every settled one (a journal
  of another campaign is refused, never overwritten). The final report
  carries no timers, so a resumed campaign's report is *identical* to
  an uninterrupted run's.
* **Flakes are not soundness violations.** A case must fail twice in a
  row to be confirmed (:class:`QuarantineState`): fail-then-pass on a
  clean retry is *flaky*, re-tried up to ``--flake-cap`` times and then
  parked as ``quarantined`` — recorded, counted, never reported as a
  violation.
* **Every confirmed violation becomes a regression test.** Confirmed
  violations are ddmin-minimized in the parent and committed to the
  content-addressed corpus (:mod:`repro.audit.corpus`) that
  ``repro corpus replay`` re-runs as an ordinary test gate.

Campaign health — cases/sec, retries, quarantines, worker respawns,
violations — flows through the MetricsRegistry
(``campaign.*`` counters) and the ``--progress`` heartbeat.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.tracer import NULL_TRACER, NullTracer
from ..resilience.deadline import per_question
from ..resilience.journal import (JournalError, JournalWriter, _canonical,
                                  read_journal)
from ..resilience.shards import (_DEADLINE_GRACE, ShardConfig, WorkerGone,
                                 WorkerPool)
from .corpus import CorpusEntry, commit_entry
from .generator import CaseSpec, FAMILIES, build_procedure, generate_case, \
    spec_from_json
from .harness import _split_rate, chaos_check, run_case
from .minimize import minimize

#: Campaign journal / report schema identifier.
CAMPAIGN_SCHEMA = "repro-campaign/1"

#: Terminal per-case statuses.
STATUSES = ("pass", "violation", "flaky", "quarantined", "unknown")


# ----------------------------------------------------------------------
# Quarantine: flake containment as an explicit state machine
# ----------------------------------------------------------------------
class QuarantineState:
    """Settles one case from a sequence of pass/fail observations.

    States::

        fresh ──pass──▶ pass (terminal)
        fresh ──fail──▶ suspect
        suspect ──fail──▶ violation (terminal: two consecutive fails)
        suspect ──pass──▶ flaky
        flaky ──fail──▶ suspect        (may still confirm)
        flaky ──pass──▶ flaky
        suspect/flaky ──(runs ≥ 2 + flake_cap)──▶ quarantined (parked)

    A soundness *violation* therefore requires two consecutive failures
    of the identical case on clean workers — an injected or
    environmental fault that killed one run cannot confirm a finding.
    A fail-then-pass case is *flaky*: retried up to ``flake_cap`` more
    times, then parked as ``quarantined`` without ever counting as a
    violation.
    """

    def __init__(self, flake_cap: int = 3) -> None:
        self.flake_cap = max(0, int(flake_cap))
        self.runs = 0
        self.failures = 0
        self.state = "fresh"

    @property
    def settled(self) -> bool:
        return self.state in ("pass", "violation", "quarantined")

    def observe(self, failed: bool) -> str:
        """Fold one run outcome; returns the new state."""
        if self.settled:
            raise RuntimeError(f"observe() on settled state {self.state!r}")
        self.runs += 1
        if failed:
            self.failures += 1
        if self.state == "fresh":
            self.state = "suspect" if failed else "pass"
        elif self.state == "suspect":
            self.state = "violation" if failed else "flaky"
        elif self.state == "flaky":
            if failed:
                self.state = "suspect"
        if self.state in ("suspect", "flaky") \
                and self.runs >= 2 + self.flake_cap:
            self.state = "quarantined"
        return self.state


# ----------------------------------------------------------------------
# Configuration and the unit stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    count: int = 1000
    families: Tuple[str, ...] = FAMILIES
    #: Chaos sweep: each rate adds one fault-injection unit per index.
    chaos_rates: Tuple[float, ...] = ()
    #: Extra runs granted to a flaky case before it is parked.
    flake_cap: int = 3
    #: Retries after worker loss / environmental faults per run.
    retry_cap: int = 2
    #: Base of the exponential retry backoff (seconds).
    backoff: float = 0.05
    #: Cooperative per-case deadline (seconds).
    case_timeout: Optional[float] = None
    #: Per-SMT-question timeout forwarded to the engine.
    question_timeout: Optional[float] = None
    jobs: int = 2
    #: Hard per-request cap; a worker that blows past it is SIGKILLed.
    kill_timeout: float = 60.0
    #: ddmin-minimize confirmed violations.
    shrink: bool = True
    #: Commit minimized violations here (None = don't).
    corpus_dir: Optional[str] = None
    #: Worker environment overrides (tests inject REPRO_WORKER_FAULT).
    extra_env: Optional[Dict[str, str]] = None


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable case: a spec at one chaos rate (0 = clean)."""

    case_id: str
    index: int
    rate: float
    spec: CaseSpec


def campaign_fingerprint(config: CampaignConfig) -> str:
    """Identity of the unit stream — a rerun refuses a journal whose
    fingerprint disagrees. Resource knobs (jobs, timeouts, backoff) are
    deliberately excluded: resuming on a bigger machine is fine."""
    doc = {"schema": CAMPAIGN_SCHEMA, "seed": config.seed,
           "count": config.count, "families": list(config.families),
           "chaos_rates": list(config.chaos_rates)}
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def enumerate_units(config: CampaignConfig,
                    generate: Callable[..., CaseSpec] = generate_case,
                    ) -> List[CampaignUnit]:
    """The deterministic unit stream: for each index, the clean
    differential case then one chaos case per sweep rate."""
    units: List[CampaignUnit] = []
    for index in range(config.count):
        spec = generate(index, seed=config.seed,
                        families=tuple(config.families))
        units.append(CampaignUnit(f"{index}", index, 0.0, spec))
        for rate in config.chaos_rates:
            units.append(CampaignUnit(f"{index}@{rate:g}", index,
                                      float(rate), spec))
    return units


# ----------------------------------------------------------------------
# Executing one unit (worker side — also the replay/minimize path)
# ----------------------------------------------------------------------
def run_unit_inline(spec: CaseSpec, *, index: int, rate: float, seed: int,
                    deadline=None,
                    case_timeout: Optional[float] = None,
                    question_timeout: Optional[float] = None) -> dict:
    """Run one campaign unit in this process; returns the wire shape
    ``{"violations", "classifications", "primal_racy", "truncated"}``.

    Deterministic for ``(spec, index, rate, seed)``: the clean case
    seeds every oracle from *index* exactly like ``repro audit``, and
    the chaos case builds a **fresh** fault schedule from ``(rate,
    seed)`` on every call — a ddmin shrink probe or a corpus replay
    sees the identical faults the original run saw.
    """
    deadline = per_question(deadline, case_timeout)
    if rate <= 0.0:
        result = run_case(index, spec, deadline=deadline,
                          question_timeout=question_timeout)
        return {"violations": [{"kind": v.kind, "detail": v.detail}
                               for v in result.violations],
                "classifications": dict(result.classifications),
                "primal_racy": result.primal_racy,
                "truncated": result.truncated}
    if spec.expect_primal_race:
        # FormAD's premise does not hold for deliberately racy primals;
        # there is no baseline to degrade from, so chaos proves nothing.
        return {"violations": [],
                "classifications": {a: "skipped-racy"
                                    for a in spec.dependents()},
                "primal_racy": True, "truncated": False}
    proc = build_procedure(spec, name=f"campaign_{spec.family}_{index}")
    outcome = chaos_check(proc, spec.independents(), spec.dependents(),
                          _split_rate(rate, seed),
                          label=f"case-{index}", case=index,
                          family=spec.family, deadline=deadline)
    return {"violations": [{"kind": v.kind, "detail": v.detail}
                           for v in outcome.violations],
            "classifications": {},
            "primal_racy": False, "truncated": False,
            "injected": outcome.injected, "degraded": outcome.degraded}


def execute_unit(request: dict) -> dict:
    """The worker-side entry point of one ``audit_case`` request."""
    from ..resilience.deadline import Deadline

    deadline = None
    if request.get("deadline_remaining") is not None:
        deadline = Deadline(float(request["deadline_remaining"]))
    payload = run_unit_inline(
        spec_from_json(request["spec"]),
        index=int(request["index"]), rate=float(request["rate"]),
        seed=int(request["seed"]), deadline=deadline,
        question_timeout=request.get("question_timeout"))
    payload["case"] = str(request.get("case", ""))
    return payload


def _unit_reproducer(unit: CampaignUnit, config: CampaignConfig,
                     kinds: frozenset) -> Callable[[CaseSpec], bool]:
    """The ddmin predicate: does *candidate* still exhibit one of the
    confirmed violation kinds under the unit's exact conditions?"""
    def reproduces(candidate: CaseSpec) -> bool:
        try:
            trial = run_unit_inline(candidate, index=unit.index,
                                    rate=unit.rate, seed=config.seed,
                                    case_timeout=config.case_timeout)
        except Exception:
            return False   # a crash on a shrunk spec ≠ the original bug
        return bool(kinds & {v["kind"] for v in trial["violations"]})
    return reproduces


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    config: CampaignConfig
    #: Settled entries in unit-enumeration order (plain dicts: they are
    #: exactly the journal records, so a resumed report is bytewise the
    #: uninterrupted one).
    entries: List[dict] = field(default_factory=list)
    #: Units left unsettled (campaign deadline expired).
    truncated: int = 0
    #: Entries replayed from an earlier run's journal.
    resumed: int = 0

    @property
    def violations(self) -> List[dict]:
        return [e for e in self.entries if e["status"] == "violation"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def statuses(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        return counts

    def to_json(self) -> dict:
        # Deliberately timer-free: a resumed campaign must produce a
        # report *identical* to an uninterrupted run's (wall-clock goes
        # to stderr and the trace stream instead).
        return {"schema": CAMPAIGN_SCHEMA, "seed": self.config.seed,
                "count": self.config.count,
                "families": list(self.config.families),
                "chaos_rates": list(self.config.chaos_rates),
                "units": len(self.entries) + self.truncated,
                "ok": self.ok, "truncated": self.truncated,
                "statuses": self.statuses(),
                "violations": self.violations,
                "cases": self.entries}


def format_campaign(report: CampaignReport) -> str:
    statuses = report.statuses()
    lines = [f"soundness campaign: seed={report.config.seed} "
             f"count={report.config.count} "
             f"chaos_rates={list(report.config.chaos_rates)} "
             f"units={len(report.entries) + report.truncated}"]
    for status in STATUSES:
        if statuses.get(status):
            lines.append(f"  {status:>12}: {statuses[status]}")
    if report.resumed:
        lines.append(f"  resumed: {report.resumed} settled case(s) "
                     f"replayed from the journal")
    if report.truncated:
        lines.append(f"  truncated: deadline expired, {report.truncated} "
                     f"unit(s) left for a rerun")
    committed = [e for e in report.entries if e.get("corpus")]
    if committed:
        lines.append(f"  corpus: {len(committed)} minimized repro(s) "
                     f"committed")
    if report.ok:
        lines.append("OK: no confirmed soundness violations")
    else:
        lines.append(f"FAIL: {len(report.violations)} confirmed "
                     f"violation(s)")
        for entry in report.violations[:20]:
            kinds = ",".join(v["kind"] for v in entry["violations"])
            lines.append(f"  [{kinds}] case {entry['case']} "
                         f"({entry['family']})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------
def _load_settled(journal_path: str, fingerprint: str) -> Dict[str, dict]:
    """Settled entries of an earlier run of this campaign, keyed by case
    id; a missing or empty journal has none. Raises
    :class:`JournalError`, leaving the file untouched, when the journal
    belongs to a different campaign or is not empty but has no intact
    header: silently mixing unit streams, or truncating what may be
    another run's only record, would corrupt the report."""
    if not os.path.exists(journal_path) \
            or os.path.getsize(journal_path) == 0:
        return {}
    meta, records, _dropped = read_journal(journal_path)
    if meta is None:
        raise JournalError(f"{journal_path} is not empty but has no "
                           f"intact {CAMPAIGN_SCHEMA} header")
    if meta.get("schema") != CAMPAIGN_SCHEMA:
        raise JournalError(f"not a {CAMPAIGN_SCHEMA} journal: "
                           f"schema={meta.get('schema')!r}")
    if meta.get("fingerprint") != fingerprint:
        raise JournalError(
            "campaign fingerprint mismatch: the journal was written by a "
            "campaign with a different seed/count/families/chaos sweep")
    settled: Dict[str, dict] = {}
    for record in records:
        if record.get("kind") == "case_done":
            entry = {k: v for k, v in record.items() if k != "kind"}
            settled[str(entry["case"])] = entry
    return settled


def run_campaign(config: CampaignConfig, *,
                 tracer: NullTracer = NULL_TRACER,
                 journal_path: Optional[str] = None,
                 deadline=None,
                 generate: Callable[..., CaseSpec] = generate_case,
                 progress: Optional[Callable[[dict], None]] = None,
                 ) -> CampaignReport:
    """Run one soundness campaign, continuing the cases an earlier run
    of the same campaign settled in *journal_path*. See the module
    docstring for the contract; the short version: this function
    finishes, and everything it settled survives kill -9."""
    units = enumerate_units(config, generate)
    fingerprint = campaign_fingerprint(config)
    report = CampaignReport(config)

    settled: Dict[str, dict] = {}
    journal = None
    if journal_path:
        settled = _load_settled(journal_path, fingerprint)
        # Entries for units outside the stream cannot happen (the
        # fingerprint pins the stream), so every settled id is valid.
        report.resumed = sum(1 for u in units if u.case_id in settled)
        if report.resumed:
            tracer.counter("campaign.resumed", report.resumed)
        journal = JournalWriter(
            journal_path,
            meta={"schema": CAMPAIGN_SCHEMA, "fingerprint": fingerprint,
                  "seed": config.seed, "count": config.count},
            append=True)

    pending: "queue.Queue[CampaignUnit]" = queue.Queue()
    for unit in units:
        if unit.case_id not in settled:
            pending.put(unit)
    open_units = pending.qsize()

    lock = threading.Lock()
    started = time.monotonic()
    done_fresh = [0]

    def settle(entry: dict) -> None:
        """The single choke point: journal first, then publish."""
        with lock:
            if journal is not None:
                journal.record("case_done", **entry)
            settled[entry["case"]] = entry
            done_fresh[0] += 1
            tracer.counter("campaign.cases")
            tracer.counter(f"campaign.{entry['status']}")
            if entry["status"] == "violation":
                tracer.counter("campaign.violations",
                               len(entry["violations"]) or 1)
            elapsed = time.monotonic() - started
            if elapsed > 0:
                tracer.gauge("campaign.cases_per_sec",
                             done_fresh[0] / elapsed)
            if progress is not None:
                progress(entry)

    if open_units:
        budget = config.kill_timeout
        if config.case_timeout is not None:
            budget = max(budget, config.case_timeout + _DEADLINE_GRACE)
        shard_config = ShardConfig(jobs=config.jobs, kill_timeout=budget,
                                   extra_env=config.extra_env)
        pool = WorkerPool(shard_config, min(config.jobs, open_units),
                          {"op": "init", "mode": "audit"})
        failure: List[Exception] = []
        threads = [threading.Thread(
            target=_feed, name=f"campaign-{k}",
            args=(k, pool, pending, config, budget, tracer, settle,
                  deadline, failure))
            for k in range(pool.size)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            pool.shutdown()
        if failure:
            # What settled is journaled already: rerunning the same
            # command continues from here once the cause is fixed.
            if journal is not None:
                journal.close()
            raise failure[0]

    for unit in units:
        entry = settled.get(unit.case_id)
        if entry is None:
            report.truncated += 1
        else:
            report.entries.append(entry)
    if journal is not None:
        journal.close()
    return report


def _feed(k: int, pool: WorkerPool, pending: "queue.Queue[CampaignUnit]",
          config: CampaignConfig, budget: float, tracer: NullTracer,
          settle: Callable[[dict], None], deadline,
          failure: List[Exception]) -> None:
    """One feeder thread: pull units, run each to a settled entry on
    this feeder's pool slot. Worker loss degrades the *case* (bounded
    retry, then a contained ``unknown``), never the campaign. Any other
    exception (a failed journal write, say) is the campaign's own
    fault: the first one lands in *failure*, which stops every feeder,
    and :func:`run_campaign` re-raises it."""
    try:
        while not failure:
            try:
                unit = pending.get_nowait()
            except queue.Empty:
                return
            if deadline is not None and deadline.expired():
                # Leave the unit unsettled: a rerun picks it up.
                # Draining the queue here lets every sibling feeder
                # exit promptly.
                continue
            settle(_run_unit(k, pool, unit, config, budget, tracer))
    except Exception as exc:
        failure.append(exc)


def _run_unit(k: int, pool: WorkerPool, unit: CampaignUnit,
              config: CampaignConfig, budget: float,
              tracer: NullTracer) -> dict:
    """Drive one unit through quarantine: dispatch, observe, retry."""
    quarantine = QuarantineState(config.flake_cap)
    retries = 0
    detail = ""
    flaked = False
    request = {"op": "audit_case", "case": unit.case_id,
               "index": unit.index, "spec": unit.spec.to_json(),
               "rate": unit.rate, "seed": config.seed,
               "deadline_remaining": config.case_timeout,
               "question_timeout": config.question_timeout}
    reply = None
    while not quarantine.settled:
        try:
            client = pool.client(k, tracer=tracer)
            reply = client.request(request, timeout=budget)
        except WorkerGone as exc:
            # Environmental or injected fault — the case observed
            # nothing; retry with backoff on a fresh worker.
            pool.drop(k)
            tracer.counter("campaign.respawns")
            retries += 1
            if retries > config.retry_cap:
                return _entry(unit, "unknown", quarantine, retries,
                              detail=f"worker lost: {exc.detail}")
            tracer.counter("campaign.retries")
            time.sleep(config.backoff * (2 ** (retries - 1)))
            continue
        error = reply.get("error")
        if error is not None:
            # The worker survived but the harness machinery crashed
            # (run_case contains oracle crashes, so this is setup-level
            # breakage): same containment as worker loss.
            retries += 1
            if retries > config.retry_cap:
                return _entry(unit, "unknown", quarantine, retries,
                              detail=f"worker error: "
                                     f"{error.get('message', error)}")
            tracer.counter("campaign.retries")
            time.sleep(config.backoff * (2 ** (retries - 1)))
            continue
        if reply.get("truncated"):
            return _entry(unit, "unknown", quarantine, retries,
                          detail="case deadline expired", reply=reply)
        state = quarantine.observe(bool(reply["violations"]))
        if state == "flaky" and not flaked:
            flaked = True
            tracer.counter("campaign.flaky")
        if not quarantine.settled:
            # Clean retry: a *fresh* worker re-runs the identical case,
            # so a confirmation can never ride on poisoned state.
            pool.drop(k)
            tracer.counter("campaign.retries")
    status = quarantine.state
    entry = _entry(unit, status, quarantine, retries,
                   detail="flaky: failed then passed on clean retry"
                   if flaked and status == "quarantined" else detail,
                   reply=reply)
    if status == "violation":
        _minimize_violation(unit, config, entry, tracer)
    return entry


def _entry(unit: CampaignUnit, status: str, quarantine: QuarantineState,
           retries: int, *, detail: str = "",
           reply: Optional[dict] = None) -> dict:
    return {"case": unit.case_id, "index": unit.index, "rate": unit.rate,
            "family": unit.spec.family, "status": status,
            "runs": quarantine.runs, "failures": quarantine.failures,
            "retries": retries,
            "violations": list((reply or {}).get("violations", [])
                               if status == "violation" else []),
            "classifications": dict((reply or {})
                                    .get("classifications", {})),
            "detail": detail, "minimized": None, "corpus": None}


def _minimize_violation(unit: CampaignUnit, config: CampaignConfig,
                        entry: dict, tracer: NullTracer) -> None:
    """ddmin the confirmed violation and commit it to the corpus. Runs
    in the parent *before* the entry is journaled, so a resumed
    campaign never re-minimizes — the journal already has the result."""
    kinds = frozenset(v["kind"] for v in entry["violations"])
    small = unit.spec
    if config.shrink:
        small = minimize(unit.spec, _unit_reproducer(unit, config, kinds))
        entry["minimized"] = small.to_json()
    if config.corpus_dir:
        corpus_entry = CorpusEntry(
            case=unit.case_id, index=unit.index, rate=unit.rate,
            seed=config.seed, family=small.family,
            kinds=tuple(sorted(kinds)), spec=small)
        path, created = commit_entry(config.corpus_dir, corpus_entry)
        entry["corpus"] = os.path.basename(path)
        if created:
            tracer.counter("campaign.corpus_commits")
