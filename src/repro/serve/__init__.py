"""Analysis-as-a-service: the ``repro serve`` daemon and its client
(schema ``repro-serve/1``, docs/SCALING.md §6).

* :mod:`~repro.serve.protocol` — the newline-JSON wire format and
  address parsing shared by both sides;
* :mod:`~repro.serve.daemon` — the long-lived server: warm
  :class:`~repro.resilience.shards.WorkerPool`, fingerprint-keyed
  memo with in-flight deduplication, the
  :class:`~repro.resilience.cache.CacheStore` with size budgets, and
  graceful SIGTERM drain;
* :mod:`~repro.serve.client` — ``repro analyze --connect ADDR``:
  ships the request, rebuilds real ``LoopAnalysis`` objects from the
  reply so CLI output is byte-identical to in-process analysis
  (modulo wall-clock timers).
"""

from .client import ServeClient, analyze_connected
from .daemon import AnalysisService, ServeConfig, build_server, run_daemon
from .protocol import (SERVE_SCHEMA, ServeError, open_connection,
                       parse_address, read_message, write_message)

__all__ = [
    "SERVE_SCHEMA", "ServeError", "open_connection", "parse_address",
    "read_message", "write_message",
    "AnalysisService", "ServeConfig", "build_server", "run_daemon",
    "ServeClient", "analyze_connected",
]
