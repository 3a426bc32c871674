"""Clients for a running ``repro serve`` instance.

:class:`HttpClient` speaks to the HTTP front end over its own small
HTTP/1.1 connection class: each request leaves in one ``send`` on a
``TCP_NODELAY`` socket, and the status line, headers and
``Content-Length`` body are read from the connection's own buffer.  It
keeps one persistent keep-alive connection per calling thread and
reuses it across requests *and* retries (a retry of an ``overloaded``
answer must not pay a fresh TCP handshake to a server that is already
loaded); a connection that went stale between requests is replaced
transparently, once, and one the server answers with
``Connection: close`` is dropped.  Transport failures raise the stdlib's
``http.client`` exception types (``RemoteDisconnected``,
``IncompleteRead``, ``BadStatusLine``, all ``HTTPException``) or
``OSError``.  Call :meth:`HttpClient.close` — or use the client as a
context manager — to release the sockets.
:class:`StdioClient` owns a ``repro serve --stdio`` child process and
speaks the JSON-lines protocol.  Both raise :class:`ServerError` —
carrying the server's stable error code — when the server answers with a
structured error, so callers get ``timeout`` / ``unknown_domain`` /
``overloaded`` as data instead of parsing messages.  A 429 carries the
scheduler's backpressure hint as :attr:`ServerError.retry_after_ms`;
``HttpClient(retries=N)`` opts into honoring it automatically for
``overloaded`` answers (and only those — other errors are not load
transients, so retrying them just repeats the failure).

Used by the test suite, the CI smoke job, and
``benchmarks/test_server_latency.py``; also the reference implementation
for anyone integrating an editor or gateway (see docs/serving.md).
"""

from __future__ import annotations

import http.client
import json
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["ServerError", "HttpClient", "StdioClient"]


def _examples_to_wire(examples: Any) -> List[Dict[str, str]]:
    """Render caller-friendly examples (IOExample records, (input, output)
    pairs, or {"input", "output"} mappings) into the wire array shape."""
    from repro.verify.examples import normalize_examples

    normalized = normalize_examples(examples)
    return [ex.to_json() for ex in (normalized or ())]


class ServerError(ReproError):
    """A structured error answered by the server.

    ``code`` is the stable wire code (:data:`repro.errors.ERROR_CODES` +
    the serving codes); ``http_status`` is 0 for stdio transports;
    ``payload`` is the full response body.  For ``overloaded`` answers
    from a queueing server, ``retry_after_ms`` is the scheduler's
    backpressure hint (how long until a queue slot likely frees up);
    None when the server did not supply one.
    """

    def __init__(self, code: str, message: str, *, http_status: int = 0,
                 payload: Optional[Dict[str, Any]] = None,
                 retry_after_ms: Optional[int] = None):
        self.code = code
        self.http_status = http_status
        self.payload = payload or {}
        self.retry_after_ms = retry_after_ms
        super().__init__(f"[{code}] {message}")


def _raise_for_error(payload: Dict[str, Any], status: int = 0) -> None:
    error = payload.get("error")
    if error:
        retry_after_ms = error.get("retry_after_ms")
        if not isinstance(retry_after_ms, (int, float)) or isinstance(
            retry_after_ms, bool
        ):
            retry_after_ms = None
        raise ServerError(
            error.get("code", "error"),
            error.get("message", "unknown server error"),
            http_status=status,
            payload=payload,
            retry_after_ms=(
                None if retry_after_ms is None else int(retry_after_ms)
            ),
        )


#: Largest response head (status line and headers) and most headers the
#: client reads: the limits of the stdlib's HTTP parser.
_MAX_HEAD_BYTES = 65536
_MAX_HEADERS = 100


class _Connection:
    """One keep-alive HTTP/1.1 connection to ``host:port``.  ``sock`` is
    None until the first request connects it."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self._buffer = bytearray()

    def close(self) -> None:
        sock, self.sock = self.sock, None
        self._buffer.clear()
        if sock is not None:
            sock.close()

    def request(self, head: bytes, body: bytes) -> Tuple[int, bytes, bool]:
        """Send one request (``head`` ends with the blank line); returns
        ``(status, body, will_close)``."""
        if self.sock is None:
            self.sock = socket.create_connection(
                (self.host, self.port), self.timeout
            )
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(head + body)
        return self._read_response()

    def _receive(self) -> bool:
        chunk = self.sock.recv(65536)
        self._buffer += chunk
        return bool(chunk)

    def _read_response(self) -> Tuple[int, bytes, bool]:
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            if len(buffer) > _MAX_HEAD_BYTES:
                raise http.client.LineTooLong("response head")
            if not self._receive():
                if not buffer:
                    raise http.client.RemoteDisconnected(
                        "Remote end closed connection without response"
                    )
                raise http.client.IncompleteRead(bytes(buffer))
            end = buffer.find(b"\r\n\r\n")
        lines = bytes(buffer[:end]).split(b"\r\n")
        del buffer[:end + 4]
        words = lines[0].split(None, 2)
        if (len(words) < 2 or not words[0].startswith(b"HTTP/")
                or len(words[1]) != 3 or not words[1].isdigit()):
            raise http.client.BadStatusLine(lines[0].decode("latin-1"))
        if len(lines) - 1 > _MAX_HEADERS:
            raise http.client.HTTPException(
                f"got more than {_MAX_HEADERS} headers"
            )
        headers: Dict[bytes, bytes] = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers.setdefault(name.strip().lower(), value.strip())
        length = headers.get(b"content-length", b"")
        if not length.isdigit():
            raise http.client.HTTPException(
                f"response without a valid Content-Length: {length!r}"
            )
        length = int(length)
        while len(buffer) < length:
            if not self._receive():
                raise http.client.IncompleteRead(
                    bytes(buffer), length - len(buffer)
                )
        data = bytes(buffer[:length])
        del buffer[:length]
        connection = headers.get(b"connection", b"").lower()
        will_close = b"close" in connection or (
            words[0] == b"HTTP/1.0" and b"keep-alive" not in connection
        )
        return int(words[1]), data, will_close


class HttpClient:
    """Minimal client for the HTTP front end.

    One persistent keep-alive connection per calling thread, reused
    across requests and retries; ``keep_alive=False`` restores the old
    connection-per-call behaviour.  ``retries``/``backoff`` opt into
    automatic retry of ``overloaded`` (429) answers only: each retry
    sleeps the server's ``retry_after_ms`` hint when present, else
    ``backoff * 2**attempt`` seconds.  The default (``retries=0``)
    preserves fail-fast behaviour.  :meth:`close` (or ``with``)
    releases every thread's socket.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, *,
                 connect_timeout: float = 10.0, retries: int = 0,
                 backoff: float = 0.05, keep_alive: bool = True):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.retries = retries
        self.backoff = backoff
        self.keep_alive = keep_alive
        self._local = threading.local()
        self._lock = threading.Lock()
        host_header = f"[{host}]" if ":" in host else host
        self._host_line = f"Host: {host_header}:{port}\r\n".encode("ascii")
        self._connections: List[_Connection] = []

    # ------------------------------------------------------------------
    # Connection management

    def _connection(self, timeout: float) -> _Connection:
        """This thread's persistent connection, created on first use."""
        conn = getattr(self._local, "conn", None)
        if conn is None or conn.sock is None:
            # First use, or close() released this thread's socket and
            # forgot its connection: start (and register) a fresh one,
            # so the next close() releases the socket it opens.
            conn = _Connection(self.host, self.port, timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        # The timeout is per-request, not per-connection: refresh it on
        # the object (used at connect time) and any live socket.
        conn.timeout = timeout
        if conn.sock is not None:
            try:
                conn.sock.settimeout(timeout)
            except OSError:
                # The socket died between requests; reset so this
                # request opens a fresh connection instead of failing.
                conn.close()
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._lock:
            try:
                self._connections.remove(conn)
            except ValueError:
                pass
        try:
            conn.close()
        except Exception:
            pass

    def close(self) -> None:
        """Close every thread's persistent connection.  Idempotent; the
        client remains usable (a subsequent request reconnects)."""
        with self._lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except Exception:
                pass

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------

    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
        *, timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; returns ``(http_status, decoded_payload)``
        without interpreting errors (the raw escape hatch)."""
        effective = self.connect_timeout if timeout is None else timeout
        raw = b"" if body is None else json.dumps(body).encode("utf-8")
        head = b"%s %s HTTP/1.1\r\n%s" % (
            method.encode("ascii"), path.encode("ascii"), self._host_line
        )
        if raw:
            head += (b"Content-Type: application/json\r\n"
                     b"Content-Length: %d\r\n" % len(raw))
        if not self.keep_alive:
            conn = _Connection(self.host, self.port, effective)
            try:
                status, data, _ = conn.request(
                    head + b"Connection: close\r\n\r\n", raw
                )
                return status, json.loads(data.decode("utf-8"))
            finally:
                conn.close()
        head += b"\r\n"
        for attempt in (0, 1):
            conn = self._connection(effective)
            # A socket that existed before this request may have been
            # idle-closed by the server; such a failure earns exactly
            # one transparent reconnect.  A fresh connection's failure
            # is real and propagates.
            was_connected = conn.sock is not None
            try:
                status, data, will_close = conn.request(head, raw)
                if will_close:
                    self._drop_connection()
                return status, json.loads(data.decode("utf-8"))
            except (http.client.HTTPException, OSError):
                self._drop_connection()
                if attempt == 0 and was_connected:
                    continue
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------

    def synthesize(
        self,
        query: str,
        *,
        domain: Optional[str] = None,
        engine: Optional[str] = None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        include_stats: bool = False,
        include_trace: bool = False,
        examples: Any = None,
        id: Any = None,
    ) -> Dict[str, Any]:
        """Synthesize one query; returns the response payload (the shared
        ``BatchItem.to_json()`` shape) or raises :class:`ServerError`.
        With ``retries > 0``, ``overloaded`` answers are retried after
        the server's ``retry_after_ms`` hint (exponential backoff when
        the hint is absent); every other error raises immediately.

        ``priority`` ("interactive", the default, or "batch") picks the
        admission class — batch requests yield slots to interactive
        ones and may be evicted from a full queue by them.

        ``examples`` (IOExample records, ``(input, output)`` pairs, or
        ``{"input", "output"}`` mappings) requests execution-guided
        verification; the response then carries ``candidates`` and
        ``verification`` (see docs/verification.md)."""
        body: Dict[str, Any] = {"query": query}
        if domain is not None:
            body["domain"] = domain
        if engine is not None:
            body["engine"] = engine
        if timeout is not None:
            body["timeout"] = timeout
        if priority is not None:
            body["priority"] = priority
        if include_stats:
            body["include_stats"] = True
        if include_trace:
            body["include_trace"] = True
        if examples is not None:
            body["examples"] = _examples_to_wire(examples)
        if id is not None:
            body["id"] = id
        # Leave the socket comfortably more patience than the synthesis
        # budget so the server, not the transport, reports the timeout.
        socket_timeout = (
            None if timeout is None
            else max(self.connect_timeout, timeout + 30.0)
        )
        for attempt in range(self.retries + 1):
            status, payload = self.request(
                "POST", "/synthesize", body, timeout=socket_timeout
            )
            try:
                _raise_for_error(payload, status)
            except ServerError as exc:
                if exc.code != "overloaded" or attempt >= self.retries:
                    raise
                if exc.retry_after_ms is not None:
                    time.sleep(exc.retry_after_ms / 1000.0)
                else:
                    time.sleep(self.backoff * (2 ** attempt))
                continue
            return payload

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")[1]

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/stats")[1]

    def domains(self) -> List[str]:
        return self.request("GET", "/domains")[1]["domains"]

    def domain_details(self) -> Dict[str, Any]:
        """Per-domain provenance from ``GET /domains``: API count,
        grammar hash, and pack metadata for pack-backed domains."""
        return self.request("GET", "/domains")[1].get("details", {})

    def reload(self, cache_dir: Optional[str] = None) -> Dict[str, Any]:
        """POST /admin/reload — hot-swap freshly loaded cache snapshots."""
        body = None if cache_dir is None else {"cache_dir": cache_dir}
        status, payload = self.request("POST", "/admin/reload", body)
        _raise_for_error(payload, status)
        return payload


class StdioClient:
    """Client that owns a ``repro serve --stdio`` child process.

    Also accepts pre-opened text streams (``reader=``/``writer=``) for
    in-process testing of the line protocol without a subprocess.
    """

    def __init__(
        self,
        argv: Optional[List[str]] = None,
        *,
        reader=None,
        writer=None,
    ):
        self._proc: Optional[subprocess.Popen] = None
        if reader is not None or writer is not None:
            if reader is None or writer is None:
                raise ValueError("pass both reader and writer, or neither")
            self._reader, self._writer = reader, writer
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--stdio"]
            cmd += argv or []
            self._proc = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            self._reader, self._writer = self._proc.stdout, self._proc.stdin

    # ------------------------------------------------------------------

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One line out, one line back (the raw escape hatch)."""
        self._writer.write(json.dumps(payload) + "\n")
        self._writer.flush()
        line = self._reader.readline()
        if not line:
            raise ServerError("shutting_down", "stdio server closed the pipe")
        return json.loads(line)

    def synthesize(
        self,
        query: str,
        *,
        domain: Optional[str] = None,
        engine: Optional[str] = None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        include_stats: bool = False,
        include_trace: bool = False,
        examples: Any = None,
        id: Any = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"query": query}
        if domain is not None:
            body["domain"] = domain
        if engine is not None:
            body["engine"] = engine
        if timeout is not None:
            body["timeout"] = timeout
        if priority is not None:
            body["priority"] = priority
        if include_stats:
            body["include_stats"] = True
        if include_trace:
            body["include_trace"] = True
        if examples is not None:
            body["examples"] = _examples_to_wire(examples)
        if id is not None:
            body["id"] = id
        payload = self.request(body)
        _raise_for_error(payload)
        return payload

    def health(self) -> Dict[str, Any]:
        return self.request({"op": "health"})["health"]

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})["stats"]

    def reload(self, cache_dir: Optional[str] = None) -> Dict[str, Any]:
        """The ``reload`` op — hot-swap freshly loaded cache snapshots."""
        body: Dict[str, Any] = {"op": "reload"}
        if cache_dir is not None:
            body["cache_dir"] = cache_dir
        payload = self.request(body)
        _raise_for_error(payload)
        return payload["reload"]

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})

    def close(self, *, timeout: float = 30.0) -> Optional[int]:
        """Shut the child down politely; returns its exit code (None for
        stream-backed clients)."""
        if self._proc is None:
            return None
        if self._proc.poll() is None:
            try:
                self.shutdown()
            except (ServerError, ValueError, OSError):
                pass  # already exiting or pipe closed
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        code = self._proc.wait(timeout=timeout)
        self._proc.stdout.close()
        return code

    def __enter__(self) -> "StdioClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
