"""Observability: structured tracing, provenance, and metrics.

The pipeline (SMT solver, FormAD engine, runtime, experiment harness)
is instrumented against a tiny tracer interface whose default,
:data:`NULL_TRACER`, does nothing — tracing costs nothing until a real
sink is injected (``--trace out.jsonl`` on the CLI builds a
:class:`JsonlTracer`). Recorded traces are replayed by ``repro
explain`` (the per-array proof chain, :mod:`repro.obs.explain`) and
``repro profile`` (the span/phase time tree, :mod:`repro.obs.profile`),
and validated against the versioned event schema
(:mod:`repro.obs.events`).
"""

from .events import (EVENT_FIELDS, SCHEMA_NAME, SCHEMA_VERSION,
                     TraceValidationError, validate_event, validate_events)
from .tracer import (NULL_TRACER, BufferTracer, CollectingTracer,
                     JsonlTracer, NullTracer, RegistryTracer,
                     Tracer, load_trace)
from .metrics import (COUNTER_KEYS, METRICS_SCHEMA, METRICS_SCHEMA_V2,
                      TIMER_KEYS, MetricsRegistry, migrate_metrics,
                      stats_metrics, validate_metrics)
from .clock import ClockSync
from .explain import explain_array, known_arrays, resolve_array
from .profile import (build_span_tree, context_table, critical_path,
                      format_profile, utilization_table, worker_lanes)

# NB: repro.obs.validate is deliberately not imported here — it is the
# ``python -m repro.obs.validate`` entry point, and importing it from
# the package would trigger runpy's double-import RuntimeWarning.
# Use ``from repro.obs.validate import validate_file`` directly.

__all__ = [
    "EVENT_FIELDS", "SCHEMA_NAME", "SCHEMA_VERSION",
    "TraceValidationError", "validate_event", "validate_events",
    "NULL_TRACER", "BufferTracer", "CollectingTracer", "JsonlTracer",
    "NullTracer", "RegistryTracer",
    "Tracer", "load_trace",
    "COUNTER_KEYS", "METRICS_SCHEMA", "METRICS_SCHEMA_V2", "TIMER_KEYS",
    "MetricsRegistry", "migrate_metrics",
    "stats_metrics", "validate_metrics",
    "ClockSync",
    "explain_array", "known_arrays", "resolve_array",
    "build_span_tree", "context_table", "critical_path",
    "format_profile", "utilization_table", "worker_lanes",
]
