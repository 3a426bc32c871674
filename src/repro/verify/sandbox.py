"""Sandboxed execution of candidate codelets.

Candidate codelets come out of synthesis over an *untrusted* query, so
verification runs every execution under two fences:

* **wall-clock slice** — the call runs on a fenced daemon worker thread
  and the caller waits for it with a timeout.  Workers are reused: a
  call takes an idle worker from a process-wide free list (or starts one
  when none is idle), and a worker whose call finished inside its slice
  goes back on the list.  A candidate that blows its slice is reported
  as ``timeout`` and its worker abandoned: it stays sandboxed and
  daemonic, finishes the job, and then exits instead of waiting for
  more work, so it can never outlive the process or escape the fences
  below;
* **syscall fence** — a process-wide :func:`sys.addaudithook` hook,
  installed once on first use, rejects filesystem / socket / subprocess
  audit events raised *by sandboxed threads only* (a thread-local flag,
  set for a worker's whole life, scopes the fence, so the rest of the
  process is untouched).  Workers run nothing but candidate jobs, and
  audit hooks cannot be uninstalled by design, which is exactly the
  guarantee we want: no codelet execution can ever slip out of the
  fence.

The free list holds at most the peak number of concurrent sandboxed
calls.  Threads do not survive ``fork``, so a forked child starts with
an empty list.

The interpreters themselves are pure string/regex transforms, so the
fence is defense in depth — it turns "the interpreter should never touch
the filesystem" into a property a test can prove
(tests/test_verify.py::TestSandbox::test_blocks_filesystem_reads).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.errors import ReproError


class SandboxViolation(ReproError):
    """A sandboxed execution attempted a fenced operation (file, socket,
    or subprocess access)."""


#: Audit events rejected inside the sandbox: exact names.
_BLOCKED_EVENTS = frozenset({
    "open",
    "os.system",
    "os.remove",
    "os.rename",
    "os.rmdir",
    "os.mkdir",
    "os.truncate",
    "os.link",
    "os.symlink",
    "os.chmod",
    "os.chown",
    "os.fork",
    "os.forkpty",
    "os.posix_spawn",
    "shutil.rmtree",
    "shutil.move",
    "shutil.copyfile",
    "tempfile.mkstemp",
    "tempfile.mkdtemp",
})

#: ...and whole families, matched by prefix.
_BLOCKED_PREFIXES = ("socket.", "subprocess.", "os.exec", "os.spawn",
                     "ftplib.", "smtplib.", "urllib.", "http.client.")

_state = threading.local()
_hook_installed = False
_install_lock = threading.Lock()


def _audit_hook(event: str, args: Any) -> None:
    if not getattr(_state, "active", False):
        return
    if event in _BLOCKED_EVENTS or event.startswith(_BLOCKED_PREFIXES):
        raise SandboxViolation(
            f"sandboxed codelet execution attempted {event!r}"
        )


def _ensure_hook() -> None:
    """Install the process-wide audit hook exactly once."""
    global _hook_installed
    if _hook_installed:
        return
    with _install_lock:
        if not _hook_installed:
            sys.addaudithook(_audit_hook)
            _hook_installed = True


def sandbox_active() -> bool:
    """Whether the calling thread is currently inside the fence."""
    return bool(getattr(_state, "active", False))


@dataclass
class SandboxResult:
    """Outcome of one fenced call."""

    status: str  # "ok" | "timeout" | "error"
    value: Any = None
    error: Optional[BaseException] = None
    elapsed_seconds: float = 0.0


class _Worker:
    """One fenced daemon thread that runs candidate jobs one at a time.

    ``_go`` and ``_done`` are locks used as binary semaphores: the caller
    releases ``_go`` to hand over a job and acquires ``_done`` to wait
    for it.  ``_mutex`` decides, once per job, between "finished inside
    the slice" (the worker released ``_done``) and "timed out" (the
    caller set ``_abandoned``)."""

    __slots__ = ("_go", "_done", "_mutex", "_abandoned", "fn", "value",
                 "error")

    def __init__(self) -> None:
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        self._mutex = threading.Lock()
        self._abandoned = False
        self.fn: Optional[Callable[[], Any]] = None
        self.value: Any = None
        self.error: Optional[BaseException] = None
        threading.Thread(
            target=self._serve, name="repro-verify-sandbox", daemon=True
        ).start()

    def _serve(self) -> None:
        _state.active = True
        while True:
            self._go.acquire()
            try:
                self.value = self.fn()
            except BaseException as exc:  # a bad candidate must never escape
                self.error = exc
            self.fn = None
            with self._mutex:
                if self._abandoned:
                    return
                self._done.release()

    def run(self, fn: Callable[[], Any],
            timeout_seconds: Optional[float]) -> bool:
        """Hand ``fn`` to the worker; True when it finished in time."""
        self.fn = fn
        self._go.release()
        if timeout_seconds is None:
            return self._done.acquire()
        if self._done.acquire(timeout=max(timeout_seconds, 0.0)):
            return True
        with self._mutex:
            # A job that ended right at the boundary released ``_done``
            # before we took the mutex: it finished, not timed out.
            finished = self._done.acquire(blocking=False)
            self._abandoned = not finished
        return finished


#: Idle workers, most recently used last.  ``list.pop``/``append`` are
#: atomic, so taking and returning a worker needs no lock.
_idle: List[_Worker] = []

# The workers' threads do not survive a fork: a child starts with none.
os.register_at_fork(after_in_child=_idle.clear)


def run_sandboxed(
    fn: Callable[[], Any], timeout_seconds: Optional[float]
) -> SandboxResult:
    """Run ``fn`` on a fenced worker thread with a wall-clock slice.

    The call takes an idle worker (or starts one) and waits for it at
    most ``timeout_seconds``; a worker that finished in time is reused,
    one that timed out is abandoned and exits once ``fn`` returns.
    ``timeout_seconds=None`` waits for ``fn`` however long it runs (the
    verifier always passes a finite slice); the syscall fence applies
    either way.  Exceptions — :class:`SandboxViolation` included — are
    captured, never raised: the verifier turns them into per-candidate
    verdicts.
    """
    _ensure_hook()
    started = time.monotonic()
    try:
        worker = _idle.pop()
    except IndexError:
        worker = _Worker()
    finished = worker.run(fn, timeout_seconds)
    elapsed = time.monotonic() - started
    if not finished:
        return SandboxResult(status="timeout", elapsed_seconds=elapsed)
    value, error = worker.value, worker.error
    worker.value = worker.error = None
    _idle.append(worker)
    if error is not None:
        return SandboxResult(
            status="error", error=error, elapsed_seconds=elapsed
        )
    return SandboxResult(status="ok", value=value, elapsed_seconds=elapsed)
