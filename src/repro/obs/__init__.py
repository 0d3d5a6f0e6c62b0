"""Observability: structured tracing, provenance, and metrics.

The pipeline (SMT solver, FormAD engine, runtime, experiment harness)
is instrumented against a tiny tracer interface whose default,
:data:`~repro.obs.tracer.NULL_TRACER`, does nothing — tracing costs
nothing until a real sink is injected (``--trace out.jsonl`` on the CLI
builds a :class:`~repro.obs.tracer.JsonlTracer`). Recorded traces are
replayed by ``repro explain`` (the per-array proof chain,
:mod:`repro.obs.explain`) and ``repro profile`` (the span/phase time
tree, :mod:`repro.obs.profile`), and validated against the versioned
event schema (:mod:`repro.obs.events`, or ``python -m
repro.obs.validate``).

The package re-exports nothing: import from the defining module
(:mod:`~repro.obs.tracer`, :mod:`~repro.obs.events`,
:mod:`~repro.obs.metrics`, :mod:`~repro.obs.clock`,
:mod:`~repro.obs.explain`, :mod:`~repro.obs.profile`), so that
``import repro`` loads only the tracer and what it needs.
"""
