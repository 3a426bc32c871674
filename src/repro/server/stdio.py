"""JSON-lines stdio front end (language-server style).

One request per line on stdin, one response per line on stdout — the
same payloads as the HTTP endpoints, without the status line.  An editor
plugin (the paper's IDE-hint scenario) keeps one ``repro serve --stdio``
child alive and gets warm-cache latency on every keystroke-triggered
query without paying process startup or a socket.

Line protocol (``op`` defaults to ``synthesize``; synthesize requests
accept the same optional fields as HTTP, including ``include_trace`` for
the per-stage pipeline trace, and the ``stats`` payload carries the same
per-stage p50/p99 ``stages`` section as ``GET /stats``)::

    -> {"query": "print every line", "id": 1}
    <- {"status": "ok", "codelet": "PRINT(...)", "id": 1, ...}
    -> {"op": "health"}
    <- {"op": "health", "health": {...}}
    -> {"op": "stats"}
    <- {"op": "stats", "stats": {...}}
    -> {"op": "reload"}
    <- {"op": "reload", "reload": {...}}
    -> {"op": "shutdown"}
    <- {"op": "shutdown", "ok": true}

The ``reload`` op (and SIGHUP, when signal handlers are installed)
hot-swaps freshly loaded cache snapshots without dropping in-flight or
queued work — the same semantics as the HTTP ``POST /admin/reload``; an
optional ``"cache_dir"`` field redirects the snapshot directory.

Requests are served strictly in order (responses never interleave), so
admission control rarely triggers here; it still guards the service when
the same :class:`SynthesisService` also backs an HTTP listener.

Lifecycle: EOF or a ``shutdown`` op drains and exits.  SIGTERM/SIGINT is
graceful too: mid-request it lets the in-flight request finish, answer,
and then exits; while idle (blocked on stdin) it exits immediately.
"""

from __future__ import annotations

import json
import signal
import sys
from typing import Any, IO, Optional

from repro.server.protocol import error_response
from repro.server.service import SynthesisService


class _Terminate(Exception):
    """Raised by the signal handler to break out of a blocking readline."""


def _respond(writer: IO[str], payload: Any) -> None:
    writer.write(json.dumps(payload) + "\n")
    writer.flush()


def serve_stdio(
    service: SynthesisService,
    reader: Optional[IO[str]] = None,
    writer: Optional[IO[str]] = None,
    *,
    grace_seconds: float = 30.0,
    install_signal_handlers: bool = True,
) -> bool:
    """Serve JSON lines from ``reader`` (default stdin) to ``writer``
    (default stdout) until EOF, a ``shutdown`` op, or SIGINT/SIGTERM.

    Returns True when the final drain completed within ``grace_seconds``
    (with serial dispatch it always does unless another front end shares
    the service).
    """
    reader = sys.stdin if reader is None else reader
    writer = sys.stdout if writer is None else writer

    stop_requested = False
    previous = {}

    def _handle(signum: int, frame: Any) -> None:
        nonlocal stop_requested
        stop_requested = True
        service.begin_shutdown()
        if service.inflight == 0:
            # Idle: the main thread is blocked in readline(); raising
            # here unblocks it (PEP 475 retries unless the handler
            # raises).  Mid-request the flag alone is enough — the loop
            # finishes the in-flight request, answers, and exits.
            raise _Terminate()

    if install_signal_handlers:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handle)

    try:
        while not stop_requested:
            try:
                line = reader.readline()
                if not line:  # EOF
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    _, response = error_response(
                        "bad_request", f"malformed JSON line: {exc}"
                    )
                    _respond(writer, response)
                    continue
                op = (
                    payload.get("op", "synthesize")
                    if isinstance(payload, dict) else "synthesize"
                )
                req_id = (
                    payload.get("id") if isinstance(payload, dict) else None
                )
                if op == "synthesize":
                    _, response = service.handle_payload(payload)
                elif op == "health":
                    response = {"op": "health", "id": req_id,
                                "health": service.health()}
                elif op == "stats":
                    response = {"op": "stats", "id": req_id,
                                "stats": service.stats()}
                elif op == "reload":
                    status, result = service.handle_reload(
                        {k: v for k, v in payload.items()
                         if k not in ("op", "id")},
                        id=req_id,
                    )
                    response = (
                        {"op": "reload", "id": req_id, "reload": result}
                        if status == 200 else result
                    )
                elif op == "shutdown":
                    service.begin_shutdown()
                    stop_requested = True
                    response = {"op": "shutdown", "id": req_id, "ok": True}
                else:
                    _, response = error_response(
                        "bad_request", f"unknown op {op!r}", id=req_id
                    )
                _respond(writer, response)
            except _Terminate:
                # Signal arrived while idle (or between requests): the
                # in-flight request, if any, already answered — exit now.
                break
    finally:
        if install_signal_handlers:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        service.begin_shutdown()
        drained = service.drain(grace_seconds=grace_seconds)
        service.close()
    return drained
