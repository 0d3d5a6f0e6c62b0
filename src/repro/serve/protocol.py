"""The ``repro-serve/1`` wire protocol.

One TCP or unix-domain stream connection carries any number of
newline-delimited JSON messages: the client writes one request object
per line, the daemon answers one reply object per line, in order.
Both sides are plain ``{...}\\n`` — no framing beyond the newline, no
binary, so a smoke test can drive the daemon with a shell one-liner.

Requests::

    {"schema": "repro-serve/1", "op": "hello"}
    {"schema": "repro-serve/1", "op": "analyze",
     "source": "...", "head": "stencil",
     "independents": ["uold"], "dependents": ["unew"],
     "flags": {...engine fingerprint flags...},
     "deadline": 30.0, "question_timeout": 5.0, "escalate": 1}
    {"schema": "repro-serve/1", "op": "stats"}
    {"schema": "repro-serve/1", "op": "shutdown"}

Every reply carries ``ok`` (bool) and, on failure, ``error``
(``{"type", "message"}``). An ``analyze`` reply's payload is
``loops``: one ``{"key", "done", "verdicts"}`` record per parallel
loop in loop order — exactly the store's record shapes
(:func:`~repro.resilience.journal.serialize_analysis`), which
:func:`~repro.resilience.journal.rebuild_analysis` reverses, so the
client reconstructs full :class:`~repro.formad.engine.LoopAnalysis`
objects and reuses the ordinary CLI rendering (that construction is
what makes ``analyze --connect --json`` byte-identical to in-process
analysis, modulo wall-clock timers). ``served_from`` says how the
daemon answered: ``"cold"`` (a fresh analysis), ``"memo"`` (the
in-memory memo of a previous clean run — no worker dispatch, no model
build), or ``"cache"`` (every loop replayed from the daemon's
``--cache-dir`` store).

Resource limits (``deadline``, ``question_timeout``, ``escalate``)
are per-request and deliberately **outside** the memo/cache key,
mirroring the journal-fingerprint rule: only clean runs (no
timeouts, no UNKNOWNs, no degradation) are memoized, and a clean
answer is valid under any budget.

Addresses: ``parse_address`` reads ``HOST:PORT`` (a digits-only tail
after the last colon) as localhost TCP and anything else as a
unix-socket path, so one ``--connect ADDR`` flag serves both.
"""

from __future__ import annotations

import json
import socket
from typing import Optional, Tuple

SERVE_SCHEMA = "repro-serve/1"


class ServeError(RuntimeError):
    """A protocol-level failure talking to (or inside) the daemon."""


def parse_address(address: str) -> Tuple[str, object]:
    """``("tcp", (host, port))`` or ``("unix", path)`` for *address*.

    ``HOST:PORT`` (PORT all digits) is TCP; everything else — paths
    contain separators or at least no digits-only colon tail — is a
    unix-socket path. An empty host means localhost.
    """
    if not address:
        raise ServeError("empty serve address")
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit() and "/" not in host:
        return "tcp", (host or "127.0.0.1", int(port))
    return "unix", address


def open_connection(address: str, timeout: Optional[float] = None,
                    ) -> socket.socket:
    """A connected stream socket for *address* (TCP or unix)."""
    kind, target = parse_address(address)
    if kind == "tcp":
        return socket.create_connection(target, timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


def write_message(wfile, payload: dict) -> None:
    """One request/reply line. Sorted keys: replies are diffable and
    the wire format is deterministic for tests."""
    wfile.write((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
    wfile.flush()


def read_message(rfile) -> Optional[dict]:
    """The next message object, or None at EOF. A syntactically broken
    line raises :class:`ServeError` — the stream is out of sync and
    cannot be trusted further."""
    line = rfile.readline()
    if not line:
        return None
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ServeError(f"unparsable serve message: {exc}")
    if not isinstance(message, dict):
        raise ServeError("serve message is not an object")
    return message


def error_reply(exc_type: str, message: str) -> dict:
    return {"schema": SERVE_SCHEMA, "ok": False,
            "error": {"type": exc_type, "message": message}}
