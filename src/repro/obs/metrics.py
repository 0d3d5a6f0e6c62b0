"""Aggregated analysis metrics in a stable, machine-readable schema.

Two layers live here:

* **Schema /1** — one flat mapping per analysis (or group of
  analyses), covering every counter and phase timer
  :class:`~repro.formad.engine.AnalysisStats` records. The key set and
  order are fixed by :data:`COUNTER_KEYS` / :data:`TIMER_KEYS` and
  versioned by :data:`METRICS_SCHEMA`, so downstream tooling
  (``repro analyze --json`` scrapers, and the exact golden counters
  of ``tests/formad/test_hashseed_golden.py``) can diff counter-level
  behavior across versions instead of scraping the human-readable
  tables. Add new keys at the end and bump the schema version; never
  rename or repurpose existing keys.

* **Schema /2** — a live :class:`MetricsRegistry` of counters, gauges,
  and fixed-bucket histograms, the runtime-telemetry layer the shard
  scheduler, the verdict cache, and the solver hot path write into
  (docs/OBSERVABILITY.md "Distributed tracing & metrics v2"). Its
  :meth:`MetricsRegistry.snapshot` is what the tracer's final
  ``metrics`` event and ``analyze --progress`` heartbeats carry.
  :func:`validate_metrics` checks either version;
  :func:`migrate_metrics` lifts a ``/1`` flat mapping into the ``/2``
  shape so old consumers have one upgrade path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

#: Version tag embedded in every exported metrics mapping.
METRICS_SCHEMA = "repro-metrics/1"

#: Version tag of the registry snapshot shape (counters + gauges +
#: fixed-bucket histograms).
METRICS_SCHEMA_V2 = "repro-metrics/2"

#: Deterministic counters: identical across runs of the same analysis.
COUNTER_KEYS = (
    "queries",
    "consistency_checks",
    "exploitation_checks",
    "memo_hits",
    "solver_checks",
    "solver_sat",
    "solver_unsat",
    "solver_unknown",
    "theory_checks",
    "search_branches",
    "search_propagations",
    "formulas_translated",
    "congruence_axioms",
    "clausify_hits",
    "clausify_misses",
    "model_size",
    "unique_exprs",
    "skipped_pairs",
)

#: Wall-clock timers: machine-dependent, useful for trend lines only.
TIMER_KEYS = (
    "time_seconds",
    "solver_time_seconds",
    "translate_seconds",
    "clausify_seconds",
    "search_seconds",
)

Number = Union[int, float]


def stats_metrics(stats_list: Iterable) -> Dict[str, Number]:
    """Fold one or more ``AnalysisStats`` into a stable metrics mapping.

    Every key of :data:`COUNTER_KEYS` and :data:`TIMER_KEYS` is present
    (zero when nothing contributed), in that order, after the
    ``schema`` tag.
    """
    out: Dict[str, Number] = {"schema": METRICS_SCHEMA}
    for key in COUNTER_KEYS:
        out[key] = 0
    for key in TIMER_KEYS:
        out[key] = 0.0
    for stats in stats_list:
        out["queries"] += stats.queries
        out["solver_checks"] += stats.solver_checks
        out["consistency_checks"] += stats.consistency_checks
        out["exploitation_checks"] += stats.exploitation_checks
        out["memo_hits"] += stats.memo_hits
        out["solver_sat"] += stats.solver_sat
        out["solver_unsat"] += stats.solver_unsat
        out["solver_unknown"] += stats.solver_unknown
        out["theory_checks"] += stats.theory_checks
        out["search_branches"] += stats.search_branches
        out["search_propagations"] += stats.search_propagations
        out["formulas_translated"] += stats.formulas_translated
        out["congruence_axioms"] += stats.congruence_axioms
        out["clausify_hits"] += stats.clausify_hits
        out["clausify_misses"] += stats.clausify_misses
        out["model_size"] += stats.model_size
        out["unique_exprs"] += stats.unique_exprs
        out["skipped_pairs"] += stats.skipped_pairs
        out["time_seconds"] += stats.time_seconds
        out["solver_time_seconds"] += stats.solver_time_seconds
        out["translate_seconds"] += stats.translate_seconds
        out["clausify_seconds"] += stats.clausify_seconds
        out["search_seconds"] += stats.search_seconds
    return out


#: Default fixed histogram buckets (seconds): tuned for solver checks
#: and scheduler queue waits, which live between microseconds and the
#: kill timeout. The last bucket is an implicit +Inf overflow.
DEFAULT_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
                   0.1, 0.5, 1.0, 5.0, 30.0)


class MetricsRegistry:
    """Thread-safe counters, gauges, and fixed-bucket histograms.

    The runtime's telemetry sink (schema :data:`METRICS_SCHEMA_V2`).
    Counters are monotonic sums, gauges last-write-wins, histograms
    fixed-bucket with an overflow bucket, a total count, and a running
    sum — everything a snapshot consumer needs to compute rates and
    rough quantiles without the raw samples. Bucket bounds are fixed at
    the first ``observe`` of a name (pass ``buckets=`` to override the
    default); later observes reuse them, so snapshots stay mergeable.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}
        # name -> (bounds, counts[len(bounds) + 1], count, sum)
        self._histograms: Dict[str, list] = {}

    def counter(self, name: str, value: Number = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: Number) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: Number,
                buckets: Optional[Sequence[Number]] = None) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                bounds = tuple(buckets if buckets is not None
                               else DEFAULT_BUCKETS)
                hist = self._histograms[name] = [
                    bounds, [0] * (len(bounds) + 1), 0, 0.0]
            # bisect_left: a value equal to a bound lands in that
            # bound's bucket (the "le" histogram convention).
            hist[1][bisect_left(hist[0], value)] += 1
            hist[2] += 1
            hist[3] += value

    def snapshot(self) -> Dict[str, Any]:
        """The full registry as a schema-``/2`` document."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA_V2,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: {"buckets": list(bounds), "counts": list(counts),
                           "count": count, "sum": total}
                    for name, (bounds, counts, count, total)
                    in sorted(self._histograms.items())
                },
            }


def migrate_metrics(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Lift any supported metrics document into the ``/2`` shape.

    A ``repro-metrics/1`` flat mapping becomes counters (its
    :data:`COUNTER_KEYS`) plus gauges (its :data:`TIMER_KEYS` — wall
    clocks are point-in-time readings, not monotonic sums, under the
    ``/2`` vocabulary); a ``/2`` snapshot passes through unchanged.
    Anything else raises :class:`ValueError` naming the versions this
    reader understands.
    """
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == METRICS_SCHEMA_V2:
        return doc
    if schema == METRICS_SCHEMA:
        return {
            "schema": METRICS_SCHEMA_V2,
            "counters": {k: doc[k] for k in COUNTER_KEYS if k in doc},
            "gauges": {k: doc[k] for k in TIMER_KEYS if k in doc},
            "histograms": {},
        }
    raise ValueError(
        f"unknown metrics schema {schema!r}: this reader understands "
        f"{METRICS_SCHEMA!r} and {METRICS_SCHEMA_V2!r}")


def validate_metrics(doc: Any) -> List[str]:
    """Structural errors of a metrics document, either version
    (empty list = valid). Unknown schema versions are an error, not a
    pass-through — a consumer must never silently misread a future
    shape."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"metrics document is {type(doc).__name__}, not an object"]
    try:
        doc = migrate_metrics(doc)
    except ValueError as exc:
        return [str(exc)]
    for group in ("counters", "gauges"):
        values = doc.get(group)
        if not isinstance(values, dict):
            errors.append(f"{group}: not an object")
            continue
        for name, value in values.items():
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                errors.append(f"{group}[{name!r}]: non-numeric value "
                              f"{value!r}")
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        return errors + ["histograms: not an object"]
    for name, hist in histograms.items():
        where = f"histograms[{name!r}]"
        if not isinstance(hist, dict):
            errors.append(f"{where}: not an object")
            continue
        for field in ("buckets", "counts", "count", "sum"):
            if field not in hist:
                errors.append(f"{where}: missing field {field!r}")
        buckets, counts = hist.get("buckets"), hist.get("counts")
        if isinstance(buckets, list) and isinstance(counts, list):
            if len(counts) != len(buckets) + 1:
                errors.append(
                    f"{where}: {len(counts)} count(s) for "
                    f"{len(buckets)} bucket bound(s); expected "
                    f"{len(buckets) + 1} (one overflow bucket)")
            if list(buckets) != sorted(buckets):
                errors.append(f"{where}: bucket bounds are not sorted")
        if isinstance(counts, list) and isinstance(hist.get("count"), int) \
                and all(isinstance(c, int) for c in counts) \
                and sum(counts) != hist["count"]:
            errors.append(f"{where}: count {hist['count']} does not "
                          f"equal the bucket-count sum {sum(counts)}")
    return errors
