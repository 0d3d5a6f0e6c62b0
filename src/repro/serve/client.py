"""The ``repro analyze --connect ADDR`` client path.

The client does the *cheap* half of an analysis locally — parse the
source, build the engine (no model build), compute the fingerprint
flags — and ships the expensive half to the daemon. The reply's
per-loop ``{"key", "done", "verdicts"}`` records are rebuilt into
real :class:`~repro.formad.engine.LoopAnalysis` objects against the
locally parsed loops, so the ordinary CLI rendering (human and
``--json``) runs unchanged on daemon answers — byte-identity with
in-process analysis (modulo wall-clock timers) holds by construction,
not by a parallel formatter.

A :class:`~repro.formad.engine.PrimalRaceError` reported by the
daemon is re-raised here, so the connected run fails exactly like the
in-process run would.
"""

from __future__ import annotations

from typing import List, Optional

from .protocol import (SERVE_SCHEMA, ServeError, open_connection,
                       read_message, write_message)


class ServeClient:
    """One connection to a ``repro serve`` daemon."""

    def __init__(self, address: str,
                 timeout: Optional[float] = None) -> None:
        self.address = address
        try:
            self._sock = open_connection(address, timeout=timeout)
        except OSError as exc:
            raise ServeError(f"cannot connect to repro serve at "
                             f"{address!r}: {exc}")
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def request(self, payload: dict) -> dict:
        message = dict(payload, schema=SERVE_SCHEMA)
        try:
            write_message(self._wfile, message)
        except OSError as exc:
            raise ServeError(f"serve connection lost: {exc}")
        reply = read_message(self._rfile)
        if reply is None:
            raise ServeError("serve daemon closed the connection "
                             "mid-request")
        return reply

    def hello(self) -> dict:
        return self.request({"op": "hello"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def analyze(self, source: str, head: str,
                independents: List[str], dependents: List[str], *,
                flags: Optional[dict] = None,
                deadline: Optional[float] = None,
                question_timeout: Optional[float] = None,
                escalate: int = 1) -> dict:
        reply = self.request({
            "op": "analyze", "source": source, "head": head,
            "independents": list(independents),
            "dependents": list(dependents),
            "flags": dict(flags or {}),
            "deadline": deadline,
            "question_timeout": question_timeout,
            "escalate": escalate,
        })
        if not reply.get("ok"):
            error = reply.get("error") or {}
            if error.get("type") == "PrimalRaceError":
                from ..formad.engine import PrimalRaceError
                raise PrimalRaceError(str(error.get("message", "")))
            raise ServeError(f"serve analyze failed: "
                             f"{error.get('type', 'Error')}: "
                             f"{error.get('message', reply)}")
        return reply

    def close(self) -> None:
        for closer in (self._rfile, self._wfile, self._sock):
            try:
                closer.close()
            except OSError:  # pragma: no cover
                pass


def analyze_connected(engine, source: str, head: str,
                      independents: List[str], dependents: List[str], *,
                      address: str,
                      deadline: Optional[float] = None,
                      question_timeout: Optional[float] = None,
                      escalate: int = 1) -> List:
    """Analyze through the daemon at *address* and return the rebuilt
    ``LoopAnalysis`` list in local loop order. *engine* is the
    locally-built (never run) engine — it provides the loop objects,
    keys, and fingerprint flags the reply is matched against."""
    from ..resilience.journal import rebuild_analysis

    client = ServeClient(address)
    try:
        reply = client.analyze(
            source, head, independents, dependents,
            flags=engine.fingerprint_flags(), deadline=deadline,
            question_timeout=question_timeout, escalate=escalate)
    finally:
        client.close()
    loops_by_key = {engine.loop_key(loop): loop
                    for loop in engine.proc.parallel_loops()}
    analyses = []
    for item in reply.get("loops", []):
        key = str(item.get("key"))
        loop = loops_by_key.get(key)
        if loop is None:
            raise ServeError(
                f"daemon answered for loop {key!r}, which this source "
                f"does not contain — server/client source desync")
        analysis = rebuild_analysis(loop, dict(item.get("done") or {}),
                                    list(item.get("verdicts") or []))
        # The daemon judged cleanliness against the real run; the
        # rebuilt object carries its verdict rather than guessing.
        analysis.cacheable = bool(item.get("cacheable"))
        analyses.append(analysis)
    if len(analyses) != len(loops_by_key):
        raise ServeError(
            f"daemon answered {len(analyses)} loop(s), local source has "
            f"{len(loops_by_key)} — server/client source desync")
    return analyses
