"""Command-line interface — a Tapenade-flavored front end.

::

    python -m repro analyze kernel.f90 -i x -o y [--json] [--trace t.jsonl]
    python -m repro differentiate kernel.f90 -i x -o y --strategy formad
    python -m repro tangent kernel.f90 -i x -o y
    python -m repro experiments [--trace t.jsonl]
    python -m repro explain t.jsonl --array yb
    python -m repro profile t.jsonl

``analyze`` prints the FormAD verdicts and Table-1 statistics for every
parallel loop (``--json`` for the machine-readable form);
``differentiate``/``tangent`` print generated Fortran-flavored source
to stdout (or ``-O out.f90``). ``--trace out.jsonl`` records the
structured observability stream (see ``docs/OBSERVABILITY.md``), which
``explain`` replays into a per-array proof chain and ``profile``
renders as a span/phase time tree. ``--log-level debug`` surfaces the
pipeline's stdlib-``logging`` diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading
from typing import List, Optional, Sequence

from . import (STRATEGIES, differentiate, differentiate_tangent,
               format_procedure)
from .formad import format_verdicts
from .ir import ParseError, parse_program
from .obs.events import missing_fields, validate_events
from .obs.metrics import stats_metrics
from .obs.tracer import NULL_TRACER, JsonlTracer, RegistryTracer, load_trace

LOG_LEVELS = ("debug", "info", "warning", "error")

#: Safeguards usable as the FormAD fallback (every registered strategy
#: except the proof-gated ``shared``).
FALLBACKS = ("atomic", "reduction", "preaccumulate", "transposed")


def positive_int(text: str) -> int:
    """argparse type of a worker count, a case count or an attempt
    cap: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type of a byte budget: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def seconds(text: str) -> float:
    """argparse type of a deadline or timeout: seconds from 0 (expire
    at once) up to what a thread can wait (``threading.TIMEOUT_MAX``).
    NaN fails the range check too."""
    value = float(text)
    if not 0 <= value <= threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"must be seconds from 0 to {threading.TIMEOUT_MAX:g}, "
            f"got {text}")
    return value


def rate(text: str) -> float:
    """argparse type of a fault-injection rate: a probability from 0 to
    1. NaN fails the range check too."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(
            f"must be a rate from 0 to 1, got {text}")
    return value


class DistinctRates(argparse.Action):
    """argparse action of ``--chaos RATE...``: each rate names one unit
    per kernel, so a rate given twice (as printed) is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        labels = [f"{value:g}" for value in values]
        for label in labels:
            if labels.count(label) > 1:
                raise argparse.ArgumentError(
                    self, f"rates must be distinct, got {label} twice")
        setattr(namespace, self.dest, values)


def interval_seconds(text: str) -> float:
    """argparse type of a heartbeat interval: seconds above 0 and no
    longer than a thread can wait (``threading.TIMEOUT_MAX``)."""
    value = float(text)
    if not 0 < value <= threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"must be seconds above 0 and at most "
            f"{threading.TIMEOUT_MAX:g}, got {text}")
    return value


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="source file in the Fortran-flavored "
                                "mini-language")
    p.add_argument("-i", "--independents", required=True,
                   help="comma-separated independent inputs")
    p.add_argument("-o", "--dependents", required=True,
                   help="comma-separated dependent outputs")
    p.add_argument("--head", default=None,
                   help="procedure to differentiate (default: the only "
                        "procedure, or the first one)")


def _load(args) -> "Procedure":
    with open(args.file) as fh:
        program = parse_program(fh.read())
    procs = list(program)
    if not procs:
        raise SystemExit("no procedures found")
    if args.head is None:
        return procs[0]
    try:
        return program[args.head]
    except KeyError:
        names = ", ".join(p.name for p in procs)
        raise SystemExit(f"no procedure {args.head!r}; available: {names}")


def _names(text: str) -> List[str]:
    return [n.strip() for n in text.split(",") if n.strip()]


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}", file=sys.stderr)


def _configure_logging(level: Optional[str]) -> None:
    """Attach a stderr handler to the ``repro`` root logger."""
    if level is None:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(name)s %(levelname)s: %(message)s"))
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))


def _open_tracer(path: Optional[str],
                 progress: Optional[float] = None):
    """The ``--trace`` sink: a JSONL tracer, a metrics-only registry
    when just ``--progress`` is live, or the no-op default."""
    if path is not None:
        return JsonlTracer(path)
    if progress is not None:
        return RegistryTracer()
    return NULL_TRACER


def _start_heartbeat(tracer, interval: float):
    """``--progress``: a daemon thread printing one ``repro-metrics/2``
    registry snapshot line to stderr every *interval* seconds. Returns
    the stop event, or None when the tracer carries no registry."""
    registry = getattr(tracer, "registry", None)
    if registry is None:
        return None

    def beat() -> None:
        while not stop.wait(interval):
            print(json.dumps(registry.snapshot(), sort_keys=True),
                  file=sys.stderr, flush=True)

    stop = threading.Event()
    threading.Thread(target=beat, name="progress-heartbeat",
                     daemon=True).start()
    return stop


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=LOG_LEVELS, default=None,
                        help="enable pipeline logging on stderr at this "
                             "level (the 'repro' logger hierarchy)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FormAD: automatic differentiation of parallel loops "
                    "with formal methods (ICPP 2022 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="run the FormAD analysis only")
    _add_io_args(p)
    p.add_argument("--jobs", type=positive_int, default=None,
                   help="analyze the parallel loops in a pool of up to N "
                        "worker processes pulling loops off a work queue; "
                        "a crashed or hung worker degrades only its loop "
                        "(docs/SCALING.md). Without --jobs the loops run "
                        "inline")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist decided SAT/UNSAT answers and clean "
                        "settled loops across runs (schema repro-cache/1, "
                        "keyed by the invocation fingerprint, fsync'd per "
                        "record); a rerun answers from DIR instead of the "
                        "solver, which is also how a killed or timed-out "
                        "run recovers")
    p.add_argument("--trace", default=None, metavar="OUT.jsonl",
                   help="record the structured provenance/span event "
                        "stream (replay with 'repro explain/profile')")
    p.add_argument("--progress", nargs="?", const=2.0, type=interval_seconds,
                   default=None, metavar="S",
                   help="print a repro-metrics/2 registry snapshot line "
                        "to stderr every S seconds (default 2.0) and "
                        "once at the end — live scheduler/cache/solver "
                        "counters without recording a trace")
    p.add_argument("--json", action="store_true",
                   help="machine-readable verdicts + metrics on stdout "
                        "(stable schema, sorted keys)")
    p.add_argument("--deadline", type=seconds, default=None, metavar="S",
                   help="wall-clock budget for the whole run (seconds); "
                        "expired questions answer UNKNOWN and keep their "
                        "safeguards (docs/RESILIENCE.md)")
    p.add_argument("--question-timeout", type=seconds, default=None,
                   metavar="S",
                   help="wall-clock cap per exploitation question")
    p.add_argument("--escalate", type=positive_int, default=1, metavar="N",
                   help="retry timed-out/budget-exhausted questions up "
                        "to N times with exponentially enlarged budgets "
                        "(default 1 = no retries)")
    p.add_argument("--kill-timeout", type=seconds, default=60.0, metavar="S",
                   help="with --jobs: hard wall-clock cap per worker "
                        "request before SIGKILL (default 60)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero (status 3) when any loop degraded "
                        "or any question timed out")
    p.add_argument("--strategy", choices=[s for s in STRATEGIES
                                          if s != "serial"],
                   default=None,
                   help="report the per-(loop, array) safeguard this "
                        "program version would generate (adds the "
                        "'strategy' key to --json output)")
    p.add_argument("--fallback", choices=FALLBACKS, default="atomic",
                   help="with --strategy formad: safeguard for arrays "
                        "FormAD cannot prove safe")

    p = sub.add_parser("cache", parents=[common],
                       help="manage a --cache-dir verdict-cache store: "
                            "stats, offline compaction, LRU eviction")
    p.add_argument("action", choices=("stats", "compact", "evict"),
                   help="'stats' = size/usage summary; 'compact' = "
                        "rewrite files without duplicate records "
                        "(conflicting verdicts are an error unless "
                        "--drop-conflicts); 'evict' = delete least-"
                        "recently-used fingerprint files past "
                        "--max-bytes")
    p.add_argument("--cache-dir", required=True, metavar="DIR",
                   help="the store directory")
    p.add_argument("--fingerprint", default=None,
                   help="compact only this fingerprint's file "
                        "(default: every file in the store)")
    p.add_argument("--max-bytes", type=nonnegative_int, default=None,
                   metavar="N",
                   help="the eviction budget (required for 'evict')")
    p.add_argument("--drop-conflicts", action="store_true",
                   help="compaction: remove conflicting record keys "
                        "(they will be re-asked) instead of refusing")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser("differentiate", parents=[common],
                       help="generate the reverse-mode (adjoint) procedure")
    _add_io_args(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="formad")
    p.add_argument("--fallback", choices=FALLBACKS, default="atomic",
                   help="safeguard for arrays FormAD cannot prove safe")
    p.add_argument("-O", "--output", default=None, help="output file")

    p = sub.add_parser("tangent", parents=[common],
                       help="generate the forward-mode (tangent) procedure")
    _add_io_args(p)
    p.add_argument("-O", "--output", default=None, help="output file")

    p = sub.add_parser("experiments", parents=[common],
                       help="regenerate EXPERIMENTS.md (Table 1 and "
                            "Figures 3-10)")
    p.add_argument("--trace", default=None, metavar="OUT.jsonl",
                   help="record the analysis/simulation event stream")
    p.add_argument("--deadline", type=seconds, default=None, metavar="S",
                   help="wall-clock budget for the Table-1 analyses; "
                        "expired problems degrade to safeguards")

    p = sub.add_parser("audit", parents=[common],
                       help="differential soundness audit: fuzz the "
                            "analysis against dynamic race detection, "
                            "concrete collision witnesses, and numeric "
                            "checks, with a crash-safe journal, flake "
                            "quarantine, and a regression corpus "
                            "(docs/AUDIT.md)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed (the unit stream is fully "
                        "deterministic)")
    p.add_argument("--count", type=positive_int, default=50,
                   help="number of generated kernels (each adds one "
                        "clean case plus one per --chaos rate)")
    p.add_argument("--chaos", nargs="*", type=rate, default=None,
                   action=DistinctRates, metavar="RATE",
                   help="fault-inject the solver on every kernel of the "
                        "run, generated and paper kernels alike, at these "
                        "rates (bare --chaos uses the default 0.1..1.0 "
                        "sweep)")
    p.add_argument("--jobs", type=positive_int, default=None,
                   help="run the cases on N persistent worker processes; "
                        "a crashed or hung worker degrades only its case. "
                        "Without --jobs the cases run inline (the report "
                        "is the same either way)")
    p.add_argument("--journal", default=None, metavar="OUT.jsonl",
                   help="checkpoint every settled case to a crash-safe "
                        "journal (schema repro-audit/2); rerunning the "
                        "same command skips the cases it settled (the "
                        "kill -9 recovery path), and a journal of another "
                        "audit is refused")
    p.add_argument("--report", default=None, metavar="OUT.json",
                   help="write the machine-readable audit report "
                        "(schema repro-audit/2)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="commit minimized confirmed violations to this "
                        "content-addressed regression corpus "
                        "(replay with 'repro corpus replay')")
    p.add_argument("--case-timeout", type=seconds, default=None, metavar="S",
                   help="wall-clock cap per case: a hung oracle or "
                        "pathological kernel truncates its own case "
                        "instead of stalling the audit")
    p.add_argument("--question-timeout", type=seconds, default=None,
                   metavar="S",
                   help="wall-clock cap per SMT question inside a case")
    p.add_argument("--kill-timeout", type=seconds, default=60.0, metavar="S",
                   help="with --jobs: hard cap per worker request before "
                        "SIGKILL (default 60)")
    p.add_argument("--deadline", type=seconds, default=None, metavar="S",
                   help="wall-clock budget for the whole audit: it stops "
                        "cleanly between cases (the report counts the "
                        "truncation); rerun the same command with "
                        "--journal to settle the cases it left")
    p.add_argument("--trace", default=None, metavar="OUT.jsonl",
                   help="record the structured event stream of the run")
    p.add_argument("--progress", nargs="?", const=2.0, type=interval_seconds,
                   default=None, metavar="S",
                   help="print a repro-metrics/2 heartbeat line (cases/"
                        "sec, retries, quarantined, respawns, "
                        "violations) to stderr every S seconds")

    p = sub.add_parser("corpus", parents=[common],
                       help="manage the regression corpus of minimized "
                            "soundness failures (schema repro-corpus/1)")
    p.add_argument("action", choices=("replay", "list"),
                   help="'replay' re-runs every entry as a test gate "
                        "(exit 1 while any recorded bug still "
                        "reproduces); 'list' prints the entries")
    p.add_argument("--corpus", default="corpus", metavar="DIR",
                   help="the corpus directory (default ./corpus)")
    p.add_argument("--case-timeout", type=seconds, default=None, metavar="S",
                   help="cooperative wall-clock cap per replayed case")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser("explain", parents=[common],
                       help="replay a trace: why is an array safe (the "
                            "UNSAT query chain) or unsafe (the SAT "
                            "witness)?")
    p.add_argument("trace", help="trace file recorded with --trace")
    p.add_argument("--array", required=True,
                   help="array to explain (primal name or its adjoint, "
                        "e.g. unew or unewb)")
    p.add_argument("--loop", default=None,
                   help="restrict to the parallel loop over this counter")

    p = sub.add_parser("profile", parents=[common],
                       help="replay a trace as a per-phase/per-context "
                            "time tree")
    p.add_argument("trace", help="trace file recorded with --trace")
    return parser


def _strategy_selection(proc, analyses, independents, dependents,
                        requested: str, fallback: str) -> dict:
    """The per-(loop, array) safeguard selection of one program
    version, computed through the same :func:`resolve_strategy` helper
    the code generator uses, so report and generated code agree."""
    from .ad.strategies import get_strategy, resolve_strategy
    from .analysis import ActivityAnalysis
    from .analysis.references import AccessKind, collect_region_references
    activity = ActivityAnalysis(proc, independents, dependents)
    loops = []
    for index, analysis in enumerate(analyses):
        loop = analysis.loop
        refs = collect_region_references(loop.body)
        mixed = {
            name for name in refs.arrays()
            if any(a.kind is AccessKind.WRITE for a in refs.of_array(name))
            and name in activity.active
        }
        arrays = []
        for name, verdict in sorted(analysis.verdicts.items()):
            if requested == "formad" and verdict.safe:
                chosen, reason = "shared", ""
            else:
                want = fallback if requested == "formad" else requested
                strategy, reason = resolve_strategy(
                    get_strategy(want), loop, name, refs,
                    mixed=name in mixed)
                chosen = strategy.name
            arrays.append({"array": name, "strategy": chosen,
                           "reason": reason})
        # Ordinal, not loop.uid: the uid counter is process-global, and
        # the selection document must be byte-stable run over run.
        loops.append({"loop": loop.var, "index": index, "arrays": arrays})
    return {"requested": requested, "fallback": fallback, "loops": loops}


def _analysis_json(proc, analyses, outcomes=None, cache=None,
                   strategy=None) -> str:
    """The ``analyze --json`` document: verdicts + metrics, keys sorted
    for byte-stable output (schema ``repro-analyze/1``).

    Resilience keys are *conditional*: without resilience flags nothing
    degrades, times out, or escalates, so the document stays byte-
    identical to builds without the resilience layer (the acceptance
    bar for the default mode).
    """
    loops = []
    for analysis in analyses:
        entry = {
            "loop": analysis.loop.var,
            "uid": analysis.loop.uid,
            "all_safe": analysis.all_safe,
            "verdicts": [
                {"array": v.array, "safe": v.safe,
                 "pairs_total": v.pairs_total,
                 "pairs_proven": v.pairs_proven, "reason": v.reason}
                for _, v in sorted(analysis.verdicts.items())
            ],
            "metrics": stats_metrics([analysis.stats]),
        }
        if analysis.degraded:
            entry["degraded"] = True
        loops.append(entry)
    doc = {
        "schema": "repro-analyze/1",
        "procedure": proc.name,
        "all_safe": all(a.all_safe for a in analyses),
        "loops": loops,
        "totals": stats_metrics([a.stats for a in analyses]),
    }
    resilience = {
        "degraded_loops": sum(1 for a in analyses if a.degraded),
        "timed_out_questions": sum(a.stats.timed_out_questions
                                   for a in analyses),
        "escalations": sum(a.stats.escalations for a in analyses),
    }
    if any(resilience.values()):
        doc["resilience"] = resilience
    if outcomes is not None:
        doc["workers"] = [
            {"loop": o.loop_key, "status": o.status, "detail": o.detail}
            for o in outcomes
        ]
    if cache is not None:
        # Conditional like the resilience keys: only a --cache-dir run
        # carries it, so cache-less output stays byte-identical.
        doc["cache"] = cache
    if strategy is not None:
        # Conditional as well: only an --strategy run carries the
        # per-(loop, array) safeguard selection.
        doc["strategy"] = strategy
    return json.dumps(doc, indent=2, sort_keys=True)


def _load_replayable(path: str) -> Optional[list]:
    """The events of the trace at *path* for ``explain`` and ``profile``,
    or None after an ``error:`` line: a line that is not a JSON object,
    or an event without a common or required field, cannot be replayed.
    Any other schema finding is a warning."""
    try:
        events = load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for index, event in enumerate(events):
        missing = missing_fields(event)
        if missing:
            print(f"error: {path}: event {index}: {'; '.join(missing)}",
                  file=sys.stderr)
            return None
    errors = validate_events(events)
    if errors:
        print(f"warning: trace has {len(errors)} schema violation(s); "
              f"replaying anyway", file=sys.stderr)
    return events


def _run_explain(args) -> int:
    from .obs.explain import explain_array
    events = _load_replayable(args.trace)
    if events is None:
        return 1
    print(explain_array(events, args.array, loop=args.loop))
    return 0


def _run_profile(args) -> int:
    from .obs.profile import format_profile
    events = _load_replayable(args.trace)
    if events is None:
        return 1
    print(format_profile(events))
    return 0


def _deadline_of(args):
    """The run :class:`~repro.resilience.deadline.Deadline` of --deadline."""
    if getattr(args, "deadline", None) is None:
        return None
    from .resilience.deadline import Deadline
    return Deadline(args.deadline)


def _run_audit(args) -> int:
    import time

    from .audit.campaign import (DEFAULT_CHAOS_RATES, CampaignConfig,
                                 format_campaign, run_campaign)
    from .resilience.journal import JournalError

    chaos_rates = args.chaos
    if chaos_rates is not None and not chaos_rates:
        chaos_rates = DEFAULT_CHAOS_RATES
    config = CampaignConfig(
        seed=args.seed, count=args.count,
        chaos_rates=tuple(chaos_rates or ()),
        case_timeout=args.case_timeout,
        question_timeout=args.question_timeout,
        jobs=args.jobs, kill_timeout=args.kill_timeout,
        corpus_dir=args.corpus)
    tracer = _open_tracer(args.trace, progress=args.progress)
    heartbeat = None
    if args.progress is not None:
        heartbeat = _start_heartbeat(tracer, args.progress)
    started = time.monotonic()
    try:
        report = run_campaign(config, tracer=tracer,
                              journal_path=args.journal,
                              deadline=_deadline_of(args))
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if heartbeat is not None:
            heartbeat.set()
            registry = getattr(tracer, "registry", None)
            if registry is not None:
                print(json.dumps(registry.snapshot(), sort_keys=True),
                      file=sys.stderr, flush=True)
        tracer.close()
    print(format_campaign(report))
    # Wall clock stays on stderr: the report itself is timer-free so a
    # resumed run's report matches the uninterrupted one's exactly.
    print(f"audit: {len(report.entries)} settled unit(s) in "
          f"{time.monotonic() - started:.1f}s", file=sys.stderr)
    if args.report is not None:
        with open(args.report, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}", file=sys.stderr)
    if args.journal:
        print(f"journal written to {args.journal} (rerun the same "
              f"command to continue it)", file=sys.stderr)
    return 0 if report.ok else 1


def _run_corpus(args) -> int:
    from .audit.corpus import format_replay, load_corpus, replay_corpus

    if args.action == "list":
        entries = load_corpus(args.corpus)
        if args.json:
            print(json.dumps([e.to_json() for _, e in entries],
                             indent=2, sort_keys=True))
        else:
            print(f"corpus {args.corpus}: {len(entries)} entr"
                  f"{'y' if len(entries) == 1 else 'ies'}")
            for path, entry in entries:
                import os
                print(f"  {os.path.basename(path)}  case {entry.case} "
                      f"({entry.family}): {','.join(entry.kinds)}")
        return 0
    results = replay_corpus(args.corpus, case_timeout=args.case_timeout)
    if args.json:
        print(json.dumps(
            [{"path": r.path, "case": r.entry.case,
              "recorded": sorted(r.entry.kinds), "found": list(r.found),
              "reproduced": r.reproduced} for r in results],
            indent=2, sort_keys=True))
    else:
        print(format_replay(results))
    return 1 if any(r.reproduced for r in results) else 0


def _run_analyze(args, proc, independents, dependents) -> int:
    """The ``analyze`` command, including the resilience runtime
    (docs/RESILIENCE.md): deadline, escalation, crash containment,
    recovery through the ``--cache-dir`` store, and ``--strict``."""
    from .analysis import ActivityAnalysis
    from .formad import FormADEngine
    from .resilience.escalate import EscalationPolicy
    from .resilience.journal import journal_fingerprint

    escalation = None
    if args.escalate > 1:
        escalation = EscalationPolicy(max_attempts=args.escalate)
    tracer = _open_tracer(args.trace, progress=args.progress)
    activity = ActivityAnalysis(proc, independents, dependents)
    engine = FormADEngine(proc, activity, tracer=tracer,
                          deadline=_deadline_of(args),
                          question_timeout=args.question_timeout,
                          escalation=escalation)
    with open(args.file) as fh:
        source = fh.read()
    fingerprint = journal_fingerprint(source, proc.name, independents,
                                      dependents, engine.fingerprint_flags())
    cache = None
    if args.cache_dir:
        from .resilience.cache import VerdictCache
        try:
            cache = VerdictCache(args.cache_dir, fingerprint)
        except OSError as exc:
            print(f"error: cannot open verdict cache: {exc}",
                  file=sys.stderr)
            return 1
    engine.attach_run_state(cache=cache)
    outcomes = None
    heartbeat = None
    if args.progress is not None:
        heartbeat = _start_heartbeat(tracer, args.progress)
    try:
        if args.jobs is None:
            analyses = engine.analyze_all()
        else:
            from .resilience.shards import ShardConfig, analyze_sharded
            config = ShardConfig(jobs=args.jobs,
                                 kill_timeout=args.kill_timeout)
            analyses, shard_outcomes = analyze_sharded(
                engine, source, proc.name, independents, dependents,
                config=config, cache_dir=args.cache_dir,
                fingerprint=fingerprint)
            # The shard outcomes only enter the JSON document when
            # something actually went wrong — an all-ok pool run stays
            # byte-identical to the inline one.
            if any(o.status not in ("ok", "cached")
                   for o in shard_outcomes):
                outcomes = shard_outcomes
    finally:
        if cache is not None:
            cache.close()
            # The structured replacement for the old stderr-only
            # summary: cache.* registry counters plus one
            # cache_summary trace event, both before the tracer seals
            # its final metrics event.
            summary = cache.summary_data()
            for name, value in summary.items():
                if name != "path":
                    tracer.counter(f"cache.{name}", value)
            if tracer.enabled:
                tracer.emit("cache_summary", **summary)
        if heartbeat is not None:
            heartbeat.set()
            registry = getattr(tracer, "registry", None)
            if registry is not None:
                print(json.dumps(registry.snapshot(), sort_keys=True),
                      file=sys.stderr, flush=True)
        tracer.close()
    if cache is not None and not args.json:
        print(f"cache: {cache.loop_hits} loop hit(s), "
              f"{cache.question_hits} question hit(s), "
              f"{cache.loop_stores} loop(s) and "
              f"{cache.question_stores} question(s) stored in "
              f"{args.cache_dir}", file=sys.stderr)
    return _finish_analyze(args, proc, analyses, outcomes,
                           cache_summary=(cache.summary_data()
                                          if cache is not None else None))


def _finish_analyze(args, proc, analyses, outcomes=None,
                    cache_summary=None) -> int:
    """The result tail of ``analyze``, inline or pooled: verdicts and
    stats (or the ``--json`` document), the ``--strategy`` selection,
    and the ``--strict`` exit status."""
    degraded = sum(1 for a in analyses if a.degraded)
    timed_out = sum(a.stats.timed_out_questions for a in analyses)
    strict_failure = args.strict and (degraded or timed_out)
    strategy_doc = None
    if args.strategy:
        strategy_doc = _strategy_selection(
            proc, analyses, _names(args.independents),
            _names(args.dependents), args.strategy, args.fallback)
    if args.json:
        print(_analysis_json(proc, analyses, outcomes,
                             cache=cache_summary, strategy=strategy_doc))
        return 3 if strict_failure else 0
    if not analyses:
        print("no parallel loops found")
        return 0
    for analysis in analyses:
        print(format_verdicts(analysis))
        s = analysis.stats
        print(f"  stats: time={s.time_seconds:.3f}s "
              f"model_size={s.model_size} queries={s.queries} "
              f"exprs={s.unique_exprs} loc={s.region_loc}")
        print(f"  phases: translate={s.translate_seconds:.4f}s "
              f"clausify={s.clausify_seconds:.4f}s "
              f"search={s.search_seconds:.4f}s "
              f"solver_checks={s.solver_checks} "
              f"memo_hits={s.memo_hits}")
        notes = []
        if analysis.degraded:
            notes.append("degraded")
        if s.timed_out_questions:
            notes.append(f"timed_out={s.timed_out_questions}")
        if s.escalations:
            notes.append(f"escalations={s.escalations}")
        if notes:
            print(f"  resilience: {' '.join(notes)}")
    if strategy_doc is not None:
        print(f"strategy {strategy_doc['requested']} "
              f"(fallback {strategy_doc['fallback']}):")
        for entry in strategy_doc["loops"]:
            for sel in entry["arrays"]:
                note = f"  ({sel['reason']})" if sel["reason"] else ""
                print(f"  loop {entry['loop']}: {sel['array']} -> "
                      f"{sel['strategy']}{note}")
    if args.trace:
        print(f"trace written to {args.trace} (replay with "
              f"'repro explain {args.trace} --array A' or "
              f"'repro profile {args.trace}')", file=sys.stderr)
    if strict_failure:
        print(f"strict: {degraded} degraded loop(s), {timed_out} "
              f"timed-out question(s)", file=sys.stderr)
        return 3
    return 0


def _run_cache(args) -> int:
    from .resilience.cache import (CacheConflictError, CacheStore,
                                   CacheStoreError)

    store = CacheStore(args.cache_dir, max_bytes=args.max_bytes)
    if args.action == "stats":
        doc = store.stats()
        doc["files_lru"] = [
            {"fingerprint": fp, "bytes": size}
            for fp, size, _ in store.usage()]
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"cache store {args.cache_dir}: {doc['files']} file(s), "
                  f"{doc['total_bytes']} byte(s)"
                  + (f", budget {doc['max_bytes']}"
                     if doc["max_bytes"] is not None else ""))
            for entry in doc["files_lru"]:
                print(f"  {entry['fingerprint']}  {entry['bytes']} B")
        return 0
    if args.action == "evict":
        if args.max_bytes is None:
            print("error: evict needs --max-bytes N", file=sys.stderr)
            return 2
        evicted = store.evict()
        doc = {"evicted": evicted, **store.stats()}
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"evicted {len(evicted)} file(s); store now "
                  f"{doc['total_bytes']} byte(s)")
        return 0
    # compact
    try:
        summaries = store.compact(args.fingerprint,
                                  drop_conflicts=args.drop_conflicts)
    except CacheConflictError as exc:
        print(f"error: {exc}\nhint: rerun with --drop-conflicts to "
              f"remove the conflicting keys (they will be re-asked)",
              file=sys.stderr)
        return 1
    except CacheStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"compacted": summaries}, indent=2,
                         sort_keys=True))
    else:
        for s in summaries:
            print(f"{s['fingerprint']}: {s['records_before']} -> "
                  f"{s['records_after']} record(s) "
                  f"({s['duplicates_squashed']} duplicate(s) squashed, "
                  f"{s['conflicts_dropped']} conflict(s) dropped, "
                  f"{s['damaged_lines_dropped']} damaged line(s))")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not an error
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover
            pass
        return 0
    except OSError as exc:
        # a missing input, a directory given as a file, an unwritable
        # -O/--trace path: one line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "log_level", None))
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "corpus":
        return _run_corpus(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "experiments":
        from .experiments.report import main as experiments_main
        tracer = _open_tracer(args.trace)
        try:
            experiments_main(tracer=tracer, deadline=_deadline_of(args))
        finally:
            tracer.close()
        return 0
    try:
        proc = _load(args)
        independents = _names(args.independents)
        dependents = _names(args.dependents)
        if args.command == "analyze":
            return _run_analyze(args, proc, independents, dependents)
        if args.command == "differentiate":
            result = differentiate(proc, independents, dependents,
                                   strategy=args.strategy,
                                   fallback=args.fallback)
            _emit(format_procedure(result.procedure), args.output)
            return 0
        if args.command == "tangent":
            result = differentiate_tangent(proc, independents, dependents)
            _emit(format_procedure(result.procedure), args.output)
            return 0
    except (ParseError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
