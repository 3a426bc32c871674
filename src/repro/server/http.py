"""HTTP front end: a stdlib ``ThreadingHTTPServer`` accept loop over the
service, with its own lean HTTP/1.1 request handler.

Endpoints (docs/serving.md is the reference):

* ``POST /synthesize`` — JSON body per :mod:`repro.server.protocol`;
  returns the shared per-query payload (``BatchItem.to_json()`` shape).
  ``"include_trace": true`` attaches the per-stage trace of the six-step
  pipeline to the response (docs/architecture.md).
  A 429 (``overloaded``) response carries the scheduler's backpressure
  hint both as ``error.retry_after_ms`` and as a standard ``Retry-After``
  header (seconds, rounded up).
* ``POST /admin/reload`` — hot reload: re-read pack-backed domains from
  disk (an edited pack swaps in a freshly built Domain) and atomically
  swap freshly loaded cache snapshots without dropping in-flight or
  queued work; body is optional ``{"cache_dir": "..."}``.
* ``GET /healthz`` — readiness: 200 while serving, 503 while draining;
  body reports domains, snapshot provenance, cache occupancy, inflight,
  and the scheduler's queue/budget state.
* ``GET /stats`` — cumulative PathCache counters per domain plus request
  counters (the service-level view of ``SynthesisStats``), the scheduler
  section, and a ``stages`` section with per-stage p50/p99 latency over
  recent traffic (docs/architecture.md; capacity planning).
* ``GET /domains`` — the served domain names plus per-domain provenance
  (API count, grammar hash, and — for pack-backed domains — the pack
  name / version / source directory; see docs/domain_packs.md).

Transport: a small keep-alive HTTP/1.1 implementation over the stdlib
accept loop.  The request line and headers are parsed by splitting
bytes, under the stdlib parser's limits (65,536-byte lines, 100
headers), and a body is framed by ``Content-Length`` only.  Each
response — status line, headers and body — leaves in one ``sendall``.
Every transport-level refusal (a malformed or over-long line, too many
headers, an unsupported HTTP version or method, any
``Transfer-Encoding``, conflicting ``Content-Length`` values) answers in
the :func:`~repro.server.protocol.error_response` JSON shape with code
``bad_request`` and closes the connection (RFC 9112 §6.3).  Every
accepted socket sets ``TCP_NODELAY``, and any socket read or write that
blocks for :attr:`_Handler.timeout` seconds closes the connection, so a
stalled or idle client cannot pin a handler thread.

Each request is handled on its own thread (``ThreadingHTTPServer``), so
concurrency is bounded by the service's request scheduler, not the
transport — excess requests wait in its bounded queue (backpressure)
instead of piling onto sockets.  :func:`run_http` is the blocking entry
point used by ``repro serve --http``: it installs SIGINT/SIGTERM handlers
that stop the accept loop, drain in-flight requests, and close the
service — a served request is never cut off mid-synthesis by a polite
shutdown — and a SIGHUP handler that triggers the same hot reload as
``POST /admin/reload``.  Before it serves, it moves every object built
so far (domains, grammar caches, loaded snapshots) out of the cyclic
garbage collector's reach (``gc.freeze``), so no full collection stalls
a request re-scanning them.
"""

from __future__ import annotations

import gc
import json
import math
import signal
import socket
import socketserver
import threading
import time
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.server.protocol import error_response
from repro.server.service import SynthesisService

#: Largest accepted request body; a synthesis query is a sentence, so
#: anything close to this is a client bug, not a workload.
MAX_BODY_BYTES = 1 << 20
#: Longest request or header line, and most headers, per request: the
#: limits the stdlib's HTTP parser applies.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


class SynthesisHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a :class:`SynthesisService`."""

    #: Handler threads are daemonic so one wedged request cannot block
    #: process exit; the graceful path drains via the service instead.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SynthesisService,
        *,
        sock: Optional[Any] = None,
    ):
        if sock is None:
            super().__init__(address, _Handler)
        else:
            # Adopt a listener bound (and listen()-ed) by someone else —
            # the pre-fork supervisor hands every worker the same socket
            # so the kernel load-balances accepts across processes.
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            # Every worker is woken for each new connection and only one
            # wins it.  The others need EAGAIN from accept(): a blocking
            # accept() would hold their serve loop, and so the SIGTERM
            # drain, until some later connection arrives.
            sock.setblocking(False)
            self.socket = sock
            self.server_address = sock.getsockname()[:2]
            host, port = self.server_address
            self.server_name = host
            self.server_port = port
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Refused(Exception):
    """A request the transport will not serve: answered with ``status``
    and a JSON ``bad_request`` error, then the connection closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _shown(raw: bytes) -> str:
    """Up to 64 bytes of a refused request, quoted for an error message."""
    return repr(raw[:64].decode("iso-8859-1").rstrip("\r\n"))


def _version(token: bytes) -> Tuple[int, int]:
    """``b"HTTP/1.1"`` -> ``(1, 1)``; refuses anything else."""
    major, dot, minor = token[5:].partition(b".")
    if (not token.startswith(b"HTTP/") or not dot or not major.isdigit()
            or not minor.isdigit() or len(major) > 10 or len(minor) > 10):
        raise _Refused(400, f"malformed HTTP version {_shown(token)}")
    version = int(major), int(minor)
    if version >= (2, 0) or version < (1, 0):
        raise _Refused(505, f"HTTP version {_shown(token)} is not "
                            "supported; speak HTTP/1.1")
    return version


def _http_date(now: float) -> bytes:
    """The ``Date`` header line for ``now`` (RFC 9110 §5.6.7), spelled
    the same in every locale."""
    year, month, day, hour, minute, second, weekday = time.gmtime(now)[:7]
    return b"Date: %s, %02d %s %04d %02d:%02d:%02d GMT\r\n" % (
        _WEEKDAYS[weekday], day, _MONTHS[month - 1], year, hour, minute,
        second,
    )


_WEEKDAYS = (b"Mon", b"Tue", b"Wed", b"Thu", b"Fri", b"Sat", b"Sun")
_MONTHS = (b"Jan", b"Feb", b"Mar", b"Apr", b"May", b"Jun", b"Jul", b"Aug",
           b"Sep", b"Oct", b"Nov", b"Dec")
_STATUS_LINES = {
    s.value: b"HTTP/1.1 %d %s\r\n" % (s.value, s.phrase.encode("ascii"))
    for s in HTTPStatus
}
_SERVER = b"Server: repro/%s\r\n" % __version__.encode("ascii")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _Handler(socketserver.StreamRequestHandler):
    """One keep-alive HTTP/1.1 connection: requests are parsed by byte
    splitting and each response leaves in one ``sendall``."""

    #: TCP_NODELAY on every accepted socket, so no response waits on
    #: Nagle's algorithm for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: Seconds any one socket read or write may block.  A client that
    #: stalls mid-request or idles on a keep-alive connection gets its
    #: connection closed instead of pinning this handler thread.
    timeout = 30
    server: SynthesisHTTPServer

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._handle_one()
        except (socket.timeout, ConnectionError):
            # A stalled, idle or vanished peer: nothing to answer, and
            # nothing more to read from this connection.
            pass

    def _handle_one(self) -> None:
        try:
            if not self._read_head():
                self.close_connection = True  # the peer closed
                return
            if self.command == b"POST":
                self._post()
            elif self.command == b"GET":
                self._discard_body()  # a GET body is never read
                self._get()
            else:
                raise _Refused(501,
                               f"unsupported method {_shown(self.command)}")
        except _Refused as refused:
            # The rest of the stream cannot be trusted to be framed.
            self.close_connection = True
            self._send(refused.status,
                       error_response("bad_request", str(refused))[1])

    def _read_head(self) -> bool:
        """Parse the request line and headers into ``command``, ``path``,
        ``content_length``, ``expect_continue`` and ``close_connection``
        (on a repeated header the first occurrence wins); False at
        EOF."""
        rfile = self.rfile
        line = rfile.readline(MAX_LINE_BYTES + 1)
        while line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: skip blank lines
            line = rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return False
        if len(line) > MAX_LINE_BYTES:
            raise _Refused(414, "request line too long")
        words = line.split()
        if len(words) != 3:
            raise _Refused(400, f"malformed request line {_shown(line)}")
        self.command, target, version = words
        self.path = target.decode("iso-8859-1")
        version = _version(version)
        headers: Dict[bytes, bytes] = {}
        lengths = set()
        te = False
        n_headers = 0
        while True:
            line = rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _Refused(431, "header line too long")
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return False
            n_headers += 1
            if n_headers > MAX_HEADERS:
                raise _Refused(431, f"more than {MAX_HEADERS} headers")
            name, colon, value = line.partition(b":")
            name = name.lower()
            if not colon or not name or name != name.strip():
                raise _Refused(400, f"malformed header line {_shown(line)}")
            value = value.strip()
            if name == b"content-length":
                lengths.update(v.strip() for v in value.split(b","))
            elif name == b"transfer-encoding":
                te = True
            headers.setdefault(name, value)
        # RFC 9112 §6.3: a body this transport cannot frame by one
        # Content-Length must not be guessed at.
        if te:
            raise _Refused(501, "Transfer-Encoding is not supported; "
                                "send the body with a Content-Length")
        if len(lengths) > 1:
            raise _Refused(400, "conflicting Content-Length values")
        length = lengths.pop() if lengths else b"0"
        if not length.isdigit():
            raise _Refused(400, f"malformed Content-Length {_shown(length)}")
        self.content_length = int(length)
        tokens = {t.strip() for t in
                  headers.get(b"connection", b"").lower().split(b",")}
        if b"close" in tokens:
            self.close_connection = True
        elif version < (1, 1) and b"keep-alive" not in tokens:
            self.close_connection = True
        self.expect_continue = version >= (1, 1) and (
            headers.get(b"expect", b"").lower() == b"100-continue"
        )
        return True

    # ------------------------------------------------------------------

    def _post(self) -> None:
        path = self.path.rstrip("/")
        if path == "/admin/reload":
            self._handle_reload()
            return
        if path != "/synthesize":
            # Consume the (ignored) body first: on a keep-alive
            # connection, unread body bytes would be parsed as the next
            # request line.
            self._discard_body()
            self._send(*error_response(
                "not_found", f"no such endpoint: POST {self.path}"
            ))
            return
        error, body = self._read_json()
        if error is not None:
            self._send(*error)
            return
        self._send(*self.server.service.handle_payload(body))

    def _handle_reload(self) -> None:
        """POST /admin/reload: swap in fresh cache snapshots.  Optional
        body ``{"cache_dir": "..."}`` redirects the snapshot directory."""
        error, body = self._read_json()
        if error is not None:
            self._send(*error)
            return
        status, payload = self.server.service.handle_reload(body)
        # Multi-worker serving: one worker handled this request, but the
        # operator meant "reload the server" — ask the supervisor to
        # SIGHUP every worker.  (Signal-triggered reloads do not
        # re-notify, so the fan-out terminates.)
        board = getattr(self.server.service, "worker_board", None)
        if status == 200 and board is not None:
            try:
                board.notify_siblings_reload()
            except Exception:
                pass  # this worker's reload already succeeded
        self._send(status, payload)

    def _get(self) -> None:
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            health = service.health()
            self._send(503 if health["status"] == "draining" else 200, health)
        elif path == "/stats":
            self._send(200, service.stats())
        elif path == "/domains":
            # "domains" stays the plain name list (the stable shape);
            # "details" adds per-domain provenance: API count, grammar
            # hash, and pack name/version/source for pack-backed domains.
            self._send(200, {
                "domains": list(service.domain_names()),
                "details": service.domain_info(),
            })
        else:
            self._send(*error_response(
                "not_found", f"no such endpoint: GET {self.path}"
            ))

    # ------------------------------------------------------------------

    def _read_body(self) -> bytes:
        if self.expect_continue:
            # The client waits for this before it sends the body.
            self.connection.sendall(_CONTINUE)
        return self.rfile.read(self.content_length)

    def _discard_body(self) -> None:
        """Drain an unread request body so the keep-alive stream stays
        framed; when the body is too large to read, close the
        connection after the response instead."""
        if self.content_length > MAX_BODY_BYTES:
            self.close_connection = True
        elif self.content_length:
            self._read_body()

    def _read_json(self):
        """Returns ``(None, decoded_body)`` or ``((status, payload), None)``
        for a body that cannot be decoded."""
        if self.content_length > MAX_BODY_BYTES:
            # The body cannot be safely skipped, so the connection must
            # not be reused after this error response.
            self.close_connection = True
            return (
                error_response(
                    "bad_request",
                    "Content-Length required and must be "
                    f"0..{MAX_BODY_BYTES}",
                ),
                None,
            )
        if not self.content_length:
            return None, None  # endpoints decide whether a body is required
        raw = self._read_body()
        try:
            return None, json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return (
                error_response("bad_request", f"malformed JSON body: {exc}"),
                None,
            )

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        """Status line, headers and body in one ``sendall``."""
        body = json.dumps(payload).encode("utf-8")
        head = (
            _STATUS_LINES[status] + _SERVER + _http_date(time.time())
            + b"Content-Type: application/json\r\n"
            + b"Content-Length: %d\r\n" % len(body)
        )
        retry_after_ms = (
            (payload.get("error") or {}).get("retry_after_ms")
            if status == 429 else None
        )
        if retry_after_ms is not None:
            # Standard backpressure surface for generic HTTP clients:
            # whole seconds, rounded up so "soon" never reads as "now".
            head += b"Retry-After: %d\r\n" % max(
                1, math.ceil(retry_after_ms / 1000)
            )
        if self.close_connection:
            head += b"Connection: close\r\n"
        self.connection.sendall(head + b"\r\n" + body)


def start_http_server(
    service: SynthesisService, host: str = "127.0.0.1", port: int = 0
) -> SynthesisHTTPServer:
    """Bind and start serving on a background thread (tests and embedders;
    ``port=0`` picks a free port — read it back from ``server.port``).
    Caller owns shutdown: ``server.shutdown()`` then ``service`` drain."""
    server = SynthesisHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-http",
        daemon=True,
    )
    thread.start()
    return server


def run_http(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    grace_seconds: float = 30.0,
    install_signal_handlers: bool = True,
    on_ready=None,
    sock: Optional[Any] = None,
) -> bool:
    """Serve until SIGINT/SIGTERM, then drain gracefully.

    Returns True when the drain finished inside ``grace_seconds`` (the
    CLI turns False into a non-zero exit code).  ``on_ready(server)`` is
    invoked once the socket is bound — the CLI uses it to print the
    listening address.  ``sock`` serves on an already-bound listening
    socket instead of binding ``(host, port)`` (the pre-fork worker
    path; see :mod:`repro.server.multiproc`).
    """
    server = SynthesisHTTPServer((host, port), service, sock=sock)
    if on_ready is not None:
        on_ready(server)

    if install_signal_handlers:
        previous: Dict[int, Any] = {}

        def _handle(signum: int, frame: Optional[Any]) -> None:
            service.begin_shutdown()
            # shutdown() blocks until serve_forever() exits, and the
            # handler runs on the thread that is inside serve_forever —
            # stop the loop from a helper thread to avoid the deadlock.
            threading.Thread(target=server.shutdown, daemon=True).start()

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handle)

        if hasattr(signal, "SIGHUP"):  # pragma: no branch - POSIX only
            def _handle_hup(signum: int, frame: Optional[Any]) -> None:
                # Reload off the signal context so the accept loop never
                # stalls on snapshot IO; errors must not kill the server.
                def _reload() -> None:
                    try:
                        service.reload_snapshots()
                    except Exception:
                        pass  # /healthz still reports the old snapshots

                threading.Thread(
                    target=_reload, name="repro-sighup-reload", daemon=True
                ).start()

            previous[signal.SIGHUP] = signal.signal(
                signal.SIGHUP, _handle_hup
            )

    # Everything built so far lives as long as the process.  A full
    # collection re-scanned all of it: 50-110 ms with every request
    # waiting, every few hundred requests on a warm server.  Frozen, it
    # is never scanned again; the cost is that reference cycles among
    # these objects are never reclaimed, which leaves a start-up
    # domain's cycles (~1k objects) behind if a reload replaces it.
    gc.freeze()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        if install_signal_handlers:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        service.begin_shutdown()
        drained = service.drain(grace_seconds=grace_seconds)
        server.server_close()
        service.close()
    return drained
