"""The soundness-audit runner behind ``repro audit``, inline or on workers.

One run of ``repro audit`` (a *campaign*) streams a deterministic
sequence of units: for each generated
:class:`~repro.audit.generator.CaseSpec`, one clean differential case
plus one fault-injection case per ``--chaos`` rate, then one
fault-injection case per (paper kernel, rate). Every unit is settled
through the same request→reply function, :func:`execute_unit`. Without
``--jobs`` it runs in this process; with ``--jobs N`` it runs on the
persistent :class:`~repro.resilience.shards.WorkerPool`, one
subprocess-contained case at a time, exactly as ``analyze --jobs``
runs loops. Both modes write the same report, byte for byte. The
design goals, in order:

* **Nothing stalls the campaign.** Every case runs under a per-case
  deadline. On workers, a hung oracle is SIGKILLed by the request
  timeout, a crashed worker is respawned, and the case retries with
  bounded exponential backoff before settling as a contained
  ``unknown``. The campaign always finishes.
* **Nothing is lost to kill -9.** Every settled case is appended to a
  CRC'd JSONL journal (schema ``repro-audit/2``, the record codec of
  :mod:`repro.resilience.journal`) before the next case dispatches, so
  an interrupted campaign loses at most the cases in flight, and
  rerunning the same command on the same ``--journal`` skips every
  settled one (a journal of another campaign is refused, never
  overwritten). The final report carries no timers, so a resumed
  campaign's report is *identical* to an uninterrupted run's.
* **Flakes are not soundness violations.** A case must fail twice in a
  row to be confirmed (:class:`QuarantineState`): fail-then-pass on a
  clean retry is *flaky*, re-tried up to :data:`FLAKE_CAP` times and
  then parked as ``quarantined`` — recorded, counted, never reported
  as a violation.
* **Every confirmed violation becomes a regression test.** Confirmed
  violations of generated cases are ddmin-minimized in the parent and
  committed to the content-addressed corpus (:mod:`repro.audit.corpus`)
  that ``repro corpus replay`` re-runs as an ordinary test gate. A
  paper-kernel unit is neither: its kernel name, rate and seed already
  reproduce it.

Campaign health — cases/sec, retries, quarantines, worker respawns,
violations, the classification tally — flows through the
MetricsRegistry (``audit.*`` counters), the ``--progress`` heartbeat,
and one ``audit_case`` trace event per settled unit.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..experiments.specs import ALL_FIGURE_SPECS
from ..obs.tracer import NULL_TRACER, NullTracer
from ..resilience.deadline import Deadline, per_question
from ..resilience.journal import (JournalError, JournalWriter, _canonical,
                                  read_journal)
from ..resilience.shards import (_DEADLINE_GRACE, ShardConfig, WorkerGone,
                                 WorkerPool)
from .chaos import ChaosConfig
from .corpus import CorpusEntry, commit_entry
from .generator import CaseSpec, FAMILIES, build_procedure, generate_case, \
    spec_from_json
from .harness import ChaosOutcome, chaos_check, run_case
from .minimize import minimize

#: Report and journal schema identifier.
AUDIT_SCHEMA = "repro-audit/2"

#: Terminal per-case statuses.
STATUSES = ("pass", "violation", "flaky", "quarantined", "unknown")

#: The sweep of a bare ``--chaos``; each rate is split across the three
#: failure kinds.
DEFAULT_CHAOS_RATES = (0.1, 0.25, 0.5, 0.75, 1.0)

#: Extra runs granted to a flaky case before it is parked.
FLAKE_CAP = 3
#: Retries per case after worker loss or an error reply.
RETRY_CAP = 2
#: Base of the exponential retry backoff (seconds).
BACKOFF = 0.05


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

    def __init__(self, flake_cap: int = FLAKE_CAP) -> None:
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
    count: int = 50
    families: Tuple[str, ...] = FAMILIES
    #: Chaos sweep: each rate adds one fault-injection unit per index
    #: and one per paper kernel.
    chaos_rates: Tuple[float, ...] = ()
    #: Cooperative per-case deadline (seconds).
    case_timeout: Optional[float] = None
    #: Per-SMT-question timeout forwarded to the engine.
    question_timeout: Optional[float] = None
    #: Worker processes; None settles every unit in this process.
    jobs: Optional[int] = None
    #: Hard per-request cap; a worker that blows past it is SIGKILLed.
    kill_timeout: float = 60.0
    #: Commit minimized violations here (None = don't).
    corpus_dir: Optional[str] = None
    #: Worker environment overrides (tests inject REPRO_WORKER_FAULT).
    extra_env: Optional[Dict[str, str]] = None

    def __post_init__(self) -> None:
        # A rate names its units (``3@0.5``), so a repeated one would
        # run the same units twice and settle them once.
        labels = [f"{rate:g}" for rate in self.chaos_rates]
        repeated = sorted({label for label in labels
                           if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"chaos rates must be distinct, got "
                             f"{', '.join(repeated)} more than once")


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable case: a generated spec at one chaos rate (0 =
    clean), or a paper kernel (``spec`` None, ``index`` -1) at one."""

    case_id: str
    index: int
    rate: float
    spec: Optional[CaseSpec]
    kernel: Optional[str] = None

    @property
    def family(self) -> str:
        return "paper-kernel" if self.spec is None else self.spec.family

    @property
    def chaos(self) -> bool:
        """Whether the unit runs :func:`~repro.audit.harness.chaos_check`
        (a paper kernel always does; a generated case above rate 0)."""
        return self.kernel is not None or self.rate > 0.0


def campaign_fingerprint(config: CampaignConfig) -> str:
    """Identity of the unit stream — a rerun refuses a journal whose
    fingerprint disagrees. Resource knobs (jobs, timeouts) are
    deliberately excluded: resuming on a bigger machine, or inline, is
    fine."""
    doc = {"schema": AUDIT_SCHEMA, "seed": config.seed,
           "count": config.count, "families": list(config.families),
           "chaos_rates": list(config.chaos_rates)}
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def enumerate_units(config: CampaignConfig,
                    generate: Callable[..., CaseSpec] = generate_case,
                    ) -> List[CampaignUnit]:
    """The deterministic unit stream: for each index, the clean
    differential case then one chaos case per sweep rate; after them,
    one chaos case per (paper kernel, sweep rate)."""
    units: List[CampaignUnit] = []
    for index in range(config.count):
        spec = generate(index, seed=config.seed,
                        families=tuple(config.families))
        units.append(CampaignUnit(f"{index}", index, 0.0, spec))
        for rate in config.chaos_rates:
            units.append(CampaignUnit(f"{index}@{rate:g}", index,
                                      float(rate), spec))
    for kernel in ALL_FIGURE_SPECS:
        for rate in config.chaos_rates:
            units.append(CampaignUnit(f"{kernel}@{rate:g}", -1,
                                      float(rate), None, kernel))
    return units


# ----------------------------------------------------------------------
# Executing one unit (inline, in a worker, in a ddmin probe or a replay)
# ----------------------------------------------------------------------
def _unit_chaos(rate: float, seed: int, unit: Union[int, str]) -> ChaosConfig:
    """The fault schedule of one chaos unit: *rate* split across the
    three failure kinds, seeded from the run *seed* and the *unit* (a
    case index, or a paper kernel's name). Every unit of a run draws
    its own faults, and every probe of one unit draws the same ones."""
    if isinstance(unit, str):
        unit = zlib.crc32(unit.encode("utf-8"))
    return ChaosConfig(unknown_rate=rate / 2, budget_rate=rate / 4,
                       error_rate=rate / 4, seed=seed * 1_000_003 + unit)


def _chaos_reply(outcome: ChaosOutcome) -> dict:
    return {"violations": [{"kind": v.kind, "detail": v.detail}
                           for v in outcome.violations],
            "injected": outcome.injected, "degraded": outcome.degraded}


def run_unit_inline(spec: Optional[CaseSpec], *, index: int, rate: float,
                    seed: int, kernel: Optional[str] = None,
                    deadline=None,
                    case_timeout: Optional[float] = None,
                    question_timeout: Optional[float] = None) -> dict:
    """Run one unit in this process; returns the wire shape
    ``{"violations", "classifications", "truncated"}`` of a clean case,
    or ``{"violations", "injected", "degraded"}`` of a chaos unit.

    Deterministic for ``(spec or kernel, index, rate, seed)``: the clean
    case seeds every oracle from *index*, and a chaos case builds a
    **fresh** fault schedule of its own (:func:`_unit_chaos`) on every
    call — a ddmin shrink probe or a corpus replay sees the identical
    faults the original run saw. A paper-kernel unit is checked against
    that kernel's own honest baseline.
    """
    deadline = per_question(deadline, case_timeout)
    if kernel is not None:
        paper = ALL_FIGURE_SPECS[kernel]()
        return _chaos_reply(chaos_check(
            paper.proc, paper.independents, paper.dependents,
            _unit_chaos(rate, seed, kernel), label=kernel,
            deadline=deadline))
    if rate <= 0.0:
        result = run_case(index, spec, deadline=deadline,
                          question_timeout=question_timeout)
        return {"violations": [{"kind": v.kind, "detail": v.detail}
                               for v in result.violations],
                "classifications": dict(result.classifications),
                "truncated": result.truncated}
    if spec.expect_primal_race:
        # FormAD's premise does not hold for deliberately racy primals;
        # there is no baseline to degrade from, so chaos proves nothing.
        return _chaos_reply(ChaosOutcome(injected=0, degraded=False))
    proc = build_procedure(spec, name=f"campaign_{spec.family}_{index}")
    return _chaos_reply(chaos_check(
        proc, spec.independents(), spec.dependents(),
        _unit_chaos(rate, seed, index), label=f"case-{index}",
        deadline=deadline))


def execute_unit(request: dict) -> dict:
    """One ``audit_case`` request to its reply: what a pool worker runs
    for every request it receives, and what an inline run calls
    directly. An exception is contained in the reply (``error``), so
    the caller retries it the same way in both modes."""
    case_id = str(request.get("case", ""))
    try:
        deadline = None
        if request.get("deadline_remaining") is not None:
            deadline = Deadline(float(request["deadline_remaining"]))
        spec = request.get("spec")
        payload = run_unit_inline(
            None if spec is None else spec_from_json(spec),
            index=int(request["index"]), rate=float(request["rate"]),
            seed=int(request["seed"]), kernel=request.get("kernel"),
            deadline=deadline,
            question_timeout=request.get("question_timeout"))
    except Exception as exc:  # contained: the caller retries
        return {"case": case_id,
                "error": {"type": type(exc).__name__, "message": str(exc)}}
    payload["case"] = case_id
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
        return dict(Counter(e["status"] for e in self.entries))

    def classifications(self) -> Dict[str, int]:
        """The histogram of every clean case's (loop, array) verdict
        classifications."""
        return dict(Counter(cls for e in self.entries
                            for cls in e["classifications"].values()))

    def to_json(self) -> dict:
        # Deliberately timer-free: a resumed campaign must produce a
        # report *identical* to an uninterrupted run's (wall-clock goes
        # to stderr and the trace stream instead).
        return {"schema": AUDIT_SCHEMA, "seed": self.config.seed,
                "count": self.config.count,
                "families": list(self.config.families),
                "chaos_rates": list(self.config.chaos_rates),
                "units": len(self.entries) + self.truncated,
                "ok": self.ok, "truncated": self.truncated,
                "statuses": self.statuses(),
                "classifications": self.classifications(),
                "violations": self.violations,
                "cases": self.entries}


def format_campaign(report: CampaignReport) -> str:
    config = report.config
    lines = [f"soundness audit: seed={config.seed} count={config.count} "
             f"chaos_rates={list(config.chaos_rates)} "
             f"units={len(report.entries) + report.truncated}"]
    families = Counter({e["index"]: e["family"] for e in report.entries
                        if e["index"] >= 0}.values())
    if families:
        lines.append("  families: " + ", ".join(
            f"{name} x{n}" for name, n in sorted(families.items())))
    statuses = report.statuses()
    for status in STATUSES:
        if statuses.get(status):
            lines.append(f"  {status:>12}: {statuses[status]}")
    for cls, n in sorted(report.classifications().items()):
        lines.append(f"  {cls:>24}: {n}")
    chaos = [e for e in report.entries if "injected" in e]
    if chaos:
        lines.append(
            f"  chaos: {len(chaos)} units, "
            f"{sum(e['injected'] for e in chaos)} faults injected, "
            f"{sum(1 for e in chaos if e['degraded'])} degraded, "
            f"{sum(1 for e in chaos if e['status'] == 'violation')} "
            f"violating")
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
        lines.append("OK: no soundness violations")
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
                           f"intact {AUDIT_SCHEMA} header")
    if meta.get("schema") != AUDIT_SCHEMA:
        raise JournalError(f"not a {AUDIT_SCHEMA} journal: "
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
    report = CampaignReport(config)

    settled: Dict[str, dict] = {}
    journal = None
    if journal_path:
        fingerprint = campaign_fingerprint(config)
        settled = _load_settled(journal_path, fingerprint)
        # Entries for units outside the stream cannot happen (the
        # fingerprint pins the stream), so every settled id is valid.
        report.resumed = sum(1 for u in units if u.case_id in settled)
        if report.resumed:
            tracer.counter("audit.resumed", report.resumed)
        journal = JournalWriter(
            journal_path,
            meta={"schema": AUDIT_SCHEMA, "fingerprint": fingerprint,
                  "seed": config.seed, "count": config.count},
            append=True)
    pending = [unit for unit in units if unit.case_id not in settled]

    lock = threading.Lock()
    started = time.monotonic()
    done_fresh = [0]

    def settle(entry: dict, dur_s: float) -> None:
        """The single choke point: journal first, then publish. The
        unit's run time goes to the trace only: the journal and the
        report stay timer-free."""
        with lock:
            if journal is not None:
                journal.record("case_done", **entry)
            settled[entry["case"]] = entry
            done_fresh[0] += 1
            tracer.counter("audit.cases")
            tracer.counter(f"audit.{entry['status']}")
            if entry["status"] == "violation":
                tracer.counter("audit.violations",
                               len(entry["violations"]) or 1)
            for cls in entry["classifications"].values():
                tracer.counter(f"audit.classification.{cls}")
            if tracer.enabled:
                tracer.emit("audit_case", case=entry["case"],
                            family=entry["family"],
                            violations=[v["kind"]
                                        for v in entry["violations"]],
                            dur_s=dur_s)
            elapsed = time.monotonic() - started
            if elapsed > 0:
                tracer.gauge("audit.cases_per_sec",
                             done_fresh[0] / elapsed)
            if progress is not None:
                progress(entry)

    try:
        if config.jobs is None:
            for unit in pending:
                if deadline is not None and deadline.expired():
                    break   # left unsettled: a rerun picks it up
                settle(*_run_unit(unit, config, tracer,
                                  lambda: execute_unit, lambda: None))
        elif pending:
            _run_pool(pending, config, tracer, settle, deadline)
    finally:
        if journal is not None:
            journal.close()

    for unit in units:
        entry = settled.get(unit.case_id)
        if entry is None:
            report.truncated += 1
        else:
            report.entries.append(entry)
    return report


def _run_pool(pending: List[CampaignUnit], config: CampaignConfig,
              tracer: NullTracer, settle: Callable[[dict, float], None],
              deadline) -> None:
    """Settle *pending* on ``config.jobs`` worker processes, one feeder
    thread per pool slot. Re-raises the first exception of the
    campaign's own (not a worker's) once every feeder has stopped;
    what settled is journaled already, so rerunning the same command
    continues from there once the cause is fixed."""
    budget = config.kill_timeout
    if config.case_timeout is not None:
        budget = max(budget, config.case_timeout + _DEADLINE_GRACE)
    shard_config = ShardConfig(jobs=config.jobs, kill_timeout=budget,
                               extra_env=config.extra_env)
    pool = WorkerPool(shard_config, min(config.jobs, len(pending)),
                      {"op": "init", "mode": "audit"})
    work: "queue.Queue[CampaignUnit]" = queue.Queue()
    for unit in pending:
        work.put(unit)
    failure: List[Exception] = []
    threads = [threading.Thread(
        target=_feed, name=f"audit-{k}",
        args=(k, pool, work, config, budget, tracer, settle, deadline,
              failure))
        for k in range(pool.size)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        pool.shutdown()
    if failure:
        raise failure[0]


def _feed(k: int, pool: WorkerPool, pending: "queue.Queue[CampaignUnit]",
          config: CampaignConfig, budget: float, tracer: NullTracer,
          settle: Callable[[dict, float], None], deadline,
          failure: List[Exception]) -> None:
    """One feeder thread: pull units, run each to a settled entry on
    this feeder's pool slot. Worker loss degrades the *case* (bounded
    retry, then a contained ``unknown``), never the campaign. Any other
    exception (a failed journal write, say) is the campaign's own
    fault: the first one lands in *failure*, which stops every feeder,
    and :func:`_run_pool` re-raises it."""
    def connect() -> Callable[[dict], dict]:
        client = pool.client(k, tracer=tracer)
        return lambda request: client.request(request, timeout=budget)

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
            settle(*_run_unit(unit, config, tracer, connect,
                              lambda: pool.drop(k)))
    except Exception as exc:
        failure.append(exc)


def _run_unit(unit: CampaignUnit, config: CampaignConfig,
              tracer: NullTracer,
              connect: Callable[[], Callable[[dict], dict]],
              drop: Callable[[], None]) -> Tuple[dict, float]:
    """Drive one unit through quarantine: dispatch, observe, retry.
    *connect* returns the function that turns a request into its reply
    (:func:`execute_unit` inline, or a worker's round trip, spawning
    the worker first if its slot is empty); *drop* discards that
    worker, so the next run goes to a fresh one. Returns the settled
    entry and the seconds its runs took, worker start-up excluded."""
    spent = 0.0

    def timed_send(request: dict) -> dict:
        nonlocal spent
        send = connect()
        start = time.perf_counter()
        try:
            return send(request)
        finally:
            spent += time.perf_counter() - start

    entry = _settle_unit(unit, config, tracer, timed_send, drop)
    return entry, spent


def _settle_unit(unit: CampaignUnit, config: CampaignConfig,
                 tracer: NullTracer, send: Callable[[dict], dict],
                 drop: Callable[[], None]) -> dict:
    """The quarantine loop of :func:`_run_unit`, on a plain *send*."""
    quarantine = QuarantineState()
    retries = 0
    detail = ""
    flaked = False
    request = {"op": "audit_case", "case": unit.case_id,
               "index": unit.index,
               "spec": None if unit.spec is None else unit.spec.to_json(),
               "kernel": unit.kernel, "rate": unit.rate,
               "seed": config.seed,
               "deadline_remaining": config.case_timeout,
               "question_timeout": config.question_timeout}
    reply = None
    while not quarantine.settled:
        try:
            reply = send(request)
        except WorkerGone as exc:
            # Environmental or injected fault — the case observed
            # nothing; retry with backoff on a fresh worker.
            drop()
            tracer.counter("audit.respawns")
            retries += 1
            if retries > RETRY_CAP:
                return _entry(unit, "unknown", quarantine, retries,
                              detail=f"worker lost: {exc.detail}")
            tracer.counter("audit.retries")
            time.sleep(BACKOFF * (2 ** (retries - 1)))
            continue
        error = reply.get("error")
        if error is not None:
            # The harness machinery crashed (run_case contains oracle
            # crashes, so this is setup-level breakage): same
            # containment as worker loss.
            retries += 1
            if retries > RETRY_CAP:
                return _entry(unit, "unknown", quarantine, retries,
                              detail=f"harness error: "
                                     f"{error.get('message', error)}")
            tracer.counter("audit.retries")
            time.sleep(BACKOFF * (2 ** (retries - 1)))
            continue
        if reply.get("truncated"):
            return _entry(unit, "unknown", quarantine, retries,
                          detail="case deadline expired", reply=reply)
        state = quarantine.observe(bool(reply["violations"]))
        if state == "flaky" and not flaked:
            flaked = True
            tracer.counter("audit.flaky")
        if not quarantine.settled:
            # Clean retry: a *fresh* worker re-runs the identical case,
            # so a confirmation can never ride on poisoned state.
            drop()
            tracer.counter("audit.retries")
    status = quarantine.state
    entry = _entry(unit, status, quarantine, retries,
                   detail="flaky: failed then passed on clean retry"
                   if flaked and status == "quarantined" else detail,
                   reply=reply)
    if status == "violation" and unit.spec is not None:
        _minimize_violation(unit, config, entry, tracer)
    return entry


def _entry(unit: CampaignUnit, status: str, quarantine: QuarantineState,
           retries: int, *, detail: str = "",
           reply: Optional[dict] = None) -> dict:
    reply = reply or {}
    entry = {"case": unit.case_id, "index": unit.index, "rate": unit.rate,
             "family": unit.family, "status": status,
             "runs": quarantine.runs, "failures": quarantine.failures,
             "retries": retries,
             "violations": list(reply.get("violations", [])
                                if status == "violation" else []),
             "classifications": dict(reply.get("classifications", {})),
             "detail": detail, "minimized": None, "corpus": None}
    if unit.chaos:
        entry["injected"] = reply.get("injected", 0)
        entry["degraded"] = reply.get("degraded", False)
    return entry


def _minimize_violation(unit: CampaignUnit, config: CampaignConfig,
                        entry: dict, tracer: NullTracer) -> None:
    """ddmin the confirmed violation and commit it to the corpus. Runs
    in the parent *before* the entry is journaled, so a resumed
    campaign never re-minimizes — the journal already has the result.
    :data:`~repro.audit.minimize.MAX_PROBES` bounds the shrink."""
    kinds = frozenset(v["kind"] for v in entry["violations"])
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
            tracer.counter("audit.corpus_commits")
