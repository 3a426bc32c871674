"""Pre-fork multi-worker HTTP serving (``repro serve --workers N``).

A single :class:`~repro.server.http.SynthesisHTTPServer` is a
``ThreadingHTTPServer``: request parsing, dispatch, and JSON
serialization all run under one GIL, so the serving layer cannot scale
past one core no matter how parallel the engines are.  This module adds
the deployment shape the paper's "near real-time under real use" claim
needs — N independent worker *processes* behind one listening port:

* **supervisor** (:func:`run_supervisor`) — the parent binds the
  listening socket once, starts ``workers`` children, and then only
  supervises: it restarts crashed workers (exponential backoff, reset
  after a healthy run), fans SIGHUP out to every worker, and on
  SIGTERM/SIGINT forwards the signal so every worker drains gracefully
  — zero dropped in-flight or queued work, exactly the single-worker
  guarantee, N times over.
* **shared listener** — the children are forked and inherit the
  parent's bound socket, so the kernel load-balances ``accept()``
  across workers with no proxy in front.  The grammar-cache snapshots
  are loaded *once*, before the fork: every worker serves from the same
  copy-on-write pages instead of N private heaps.  Platforms without
  ``os.fork`` serve with ``--workers 1`` only.
* **aggregated observability** — every worker publishes its local
  counters to a per-worker JSON file (atomic replace) through a
  :class:`WorkerStatsBoard`; whichever worker answers ``GET /stats``
  merges all of them, so the operator sees server-wide totals plus a
  per-worker breakdown no matter which worker their connection landed
  on.
* **cluster-wide reload** — ``POST /admin/reload`` reloads the worker
  that received it, which then signals the supervisor; the supervisor
  SIGHUPs every worker, so one admin request reloads the whole server
  (signal-triggered reloads do not re-notify, which terminates the
  fan-out).

``repro serve`` with ``--workers 1`` (the default) never touches this
module — single-worker serving is byte-identical to the pre-multiproc
behaviour.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.server.http import run_http
from repro.server.service import ServerConfig, SynthesisService

__all__ = [
    "WorkerStatsBoard",
    "bind_listener",
    "run_supervisor",
    "write_port_file",
]

#: Backoff for restarting a crashed worker: doubles per crash from the
#: base, capped, and resets once a worker survives a healthy interval.
RESTART_BACKOFF_BASE_SECONDS = 0.1
RESTART_BACKOFF_MAX_SECONDS = 5.0
HEALTHY_RUN_SECONDS = 30.0

#: How often each worker republishes its counters for /stats merging.
STATS_PUBLISH_INTERVAL_SECONDS = 0.2

#: Listen backlog for the shared socket (one accept queue, N workers).
LISTEN_BACKLOG = 128

_SUPERVISOR_POLL_SECONDS = 0.05


def write_port_file(path: str, port: int) -> None:
    """Atomically record the bound port: readers see the old content or
    the complete new one, never a partial write (``repro serve
    --port-file``)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=".port-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def bind_listener(host: str, port: int) -> socket.socket:
    """Bind and listen on the socket every forked worker inherits."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(LISTEN_BACKLOG)
    except BaseException:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# Cross-worker stats
# ----------------------------------------------------------------------


class WorkerStatsBoard:
    """One worker's seat at the shared stats directory.

    Each worker owns ``worker-<id>.json`` inside ``stats_dir`` and
    republishes its :meth:`SynthesisService.stats_local` payload there
    (atomic temp-file + ``os.replace``, so readers never see a torn
    write) — continuously from a background thread, plus once on
    shutdown.  :meth:`merged` reads every seat and folds the counters
    into one server-wide ``/stats`` payload.
    """

    def __init__(
        self,
        stats_dir: str,
        worker_id: int,
        *,
        parent_pid: Optional[int] = None,
        publish_interval: float = STATS_PUBLISH_INTERVAL_SECONDS,
    ):
        self.stats_dir = stats_dir
        self.worker_id = worker_id
        self.parent_pid = parent_pid
        self.publish_interval = publish_interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._supplier: Optional[Callable[[], Dict[str, Any]]] = None

    # -- publishing ----------------------------------------------------

    @property
    def path(self) -> str:
        return os.path.join(self.stats_dir, f"worker-{self.worker_id}.json")

    def publish(self, stats: Dict[str, Any]) -> None:
        payload = {
            "worker_id": self.worker_id,
            "pid": os.getpid(),
            "stats": stats,
        }
        fd, tmp_path = tempfile.mkstemp(
            prefix=f".worker-{self.worker_id}-", suffix=".tmp",
            dir=self.stats_dir,
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def start(self, supplier: Callable[[], Dict[str, Any]]) -> None:
        """Republish ``supplier()`` every ``publish_interval`` seconds
        from a daemon thread until :meth:`stop`."""
        self._supplier = supplier

        def _loop() -> None:
            while not self._stop.wait(self.publish_interval):
                self._publish_quietly()

        self._publish_quietly()
        self._thread = threading.Thread(
            target=_loop, name="repro-stats-publisher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._publish_quietly()  # final counters survive shutdown

    def _publish_quietly(self) -> None:
        if self._supplier is None:
            return
        try:
            self.publish(self._supplier())
        except Exception:
            pass  # the stats dir may be gone during supervisor teardown

    # -- reload fan-out ------------------------------------------------

    def notify_siblings_reload(self) -> None:
        """Ask the supervisor to SIGHUP every worker (the
        ``/admin/reload`` fan-out).  No-op when the parent is gone."""
        if self.parent_pid is None or not hasattr(signal, "SIGHUP"):
            return
        if os.getppid() != self.parent_pid:
            return  # supervisor died; we are orphaned
        try:
            os.kill(self.parent_pid, signal.SIGHUP)
        except OSError:
            pass

    # -- merging -------------------------------------------------------

    def read_all(self) -> List[Dict[str, Any]]:
        entries: List[Dict[str, Any]] = []
        try:
            names = sorted(os.listdir(self.stats_dir))
        except OSError:
            return entries
        for name in names:
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            try:
                with open(
                    os.path.join(self.stats_dir, name), encoding="utf-8"
                ) as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                continue  # a seat mid-replace or mid-crash; skip it
            if isinstance(entry, dict) and isinstance(
                entry.get("stats"), dict
            ):
                entries.append(entry)
        return entries

    def merged(self, local: Dict[str, Any]) -> Dict[str, Any]:
        """The server-wide ``/stats`` payload: publish this worker's
        fresh ``local`` stats, read every seat, and fold the counters."""
        try:
            self.publish(local)
        except Exception:
            pass
        entries = self.read_all()
        if not entries:
            entries = [
                {"worker_id": self.worker_id, "pid": os.getpid(),
                 "stats": local}
            ]
        return merge_worker_stats(entries, self.worker_id, local)


def _sum_counters(
    into: Dict[str, Any], add: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Recursively sum the numeric leaves of ``add`` into ``into``
    (missing keys are adopted).  Booleans and strings are kept from the
    first dict seen — only real counters accumulate."""
    if not isinstance(add, dict):
        return into
    for key, value in add.items():
        if isinstance(value, dict):
            into[key] = _sum_counters(
                into.get(key) if isinstance(into.get(key), dict) else {},
                value,
            )
        elif isinstance(value, bool):
            into.setdefault(key, value)
        elif isinstance(value, (int, float)):
            base = into.get(key, 0)
            into[key] = (base if isinstance(base, (int, float)) else 0) + value
        else:
            into.setdefault(key, value)
    return into


def merge_worker_stats(
    entries: List[Dict[str, Any]],
    responder_id: int,
    local: Dict[str, Any],
) -> Dict[str, Any]:
    """Fold per-worker ``stats_local`` payloads into one ``/stats``
    response.

    Counters (``requests``, ``verification``, ``reloads``, the
    scheduler counters/occupancy, per-domain cache counters and entry
    counts) are summed across workers.  Distribution-shaped and
    configuration-shaped fields that do not sum — ``stages``
    percentiles, scheduler capacities/budgets, cache capacities —
    come from the responding worker and describe one worker each; the
    per-worker breakdown lives under ``workers``.
    """
    requests: Dict[str, Any] = {}
    verification: Dict[str, Any] = {}
    scheduler_counters: Dict[str, Any] = {}
    priorities: Dict[str, Any] = {}
    domains: Dict[str, Any] = {}
    reloads = 0
    inflight = 0
    queue_depth = 0
    uptime = 0.0
    workers: Dict[str, Any] = {}
    for entry in entries:
        stats = entry["stats"]
        scheduler = stats.get("scheduler") or {}
        _sum_counters(requests, stats.get("requests"))
        _sum_counters(verification, stats.get("verification"))
        _sum_counters(scheduler_counters, scheduler.get("counters"))
        _sum_counters(priorities, scheduler.get("priorities"))
        for name, domain_stats in (stats.get("domains") or {}).items():
            if not isinstance(domain_stats, dict):
                continue
            slot = domains.setdefault(
                name,
                {"counters": {}, "entries": {},
                 "capacities": domain_stats.get("capacities", {})},
            )
            _sum_counters(slot["counters"], domain_stats.get("counters"))
            _sum_counters(slot["entries"], domain_stats.get("entries"))
        reloads += int(stats.get("reloads") or 0)
        inflight += int(scheduler.get("inflight") or 0)
        queue_depth += int(scheduler.get("queue_depth") or 0)
        uptime = max(uptime, float(stats.get("uptime_seconds") or 0.0))
        workers[str(entry["worker_id"])] = {
            "pid": entry.get("pid"),
            "uptime_seconds": stats.get("uptime_seconds"),
            "requests": stats.get("requests"),
            "reloads": stats.get("reloads"),
            "inflight": scheduler.get("inflight"),
            "stages": stats.get("stages"),
        }
    local_scheduler = dict(local.get("scheduler") or {})
    local_scheduler["counters"] = scheduler_counters
    local_scheduler["priorities"] = priorities
    local_scheduler["inflight"] = inflight
    local_scheduler["queue_depth"] = queue_depth
    return {
        "uptime_seconds": uptime,
        "worker_id": responder_id,
        "n_workers": len(entries),
        "requests": requests,
        "scheduler": local_scheduler,
        "stages": local.get("stages"),
        "verification": verification,
        "reloads": reloads,
        "domains": domains,
        "workers": workers,
    }


# ----------------------------------------------------------------------
# Worker bodies
# ----------------------------------------------------------------------


def _worker_serve(
    service: SynthesisService,
    sock: socket.socket,
    slot: int,
    stats_dir: str,
    grace_seconds: float,
    parent_pid: int,
) -> int:
    """The body every worker runs: join the stats board, serve the
    shared socket until SIGTERM, drain, publish final counters.  Exit
    code 0 iff the drain finished inside the grace period."""
    board = WorkerStatsBoard(stats_dir, slot, parent_pid=parent_pid)
    service.attach_worker_board(board)
    board.start(service.stats_local)
    try:
        drained = run_http(
            service,
            sock=sock,
            grace_seconds=grace_seconds,
            install_signal_handlers=True,
        )
    finally:
        board.stop()
    return 0 if drained else 1


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------


class _WorkerHandle:
    """One live (or just-exited) forked worker process."""

    __slots__ = ("slot", "pid", "started_at", "exitcode")

    def __init__(self, slot: int, pid: int):
        self.slot = slot
        self.pid = pid
        self.started_at = time.monotonic()
        self.exitcode: Optional[int] = None

    def poll(self) -> Optional[int]:
        """The worker's exit code, reaping it if needed; None while it
        is still running.  Stable once non-None."""
        if self.exitcode is not None:
            return self.exitcode
        try:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            self.exitcode = 0  # reaped elsewhere; assume clean
            return self.exitcode
        if pid == 0:
            return None
        self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode

    def signal(self, signum: int) -> None:
        if self.exitcode is not None:
            return
        try:
            os.kill(self.pid, signum)
        except OSError:
            pass


def run_supervisor(
    config: ServerConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    grace_seconds: float = 30.0,
    port_file: Optional[str] = None,
    on_ready: Optional[Callable[[int], None]] = None,
) -> bool:
    """Run the pre-fork server until SIGTERM/SIGINT; returns True when
    every worker drained cleanly inside the grace period.

    Raises :class:`~repro.errors.ReproError`, before anything is bound,
    where ``os.fork`` is missing.  ``on_ready(port)`` fires once the port
    is bound and every initial worker is started.
    """
    if workers < 1:
        raise ReproError("workers must be >= 1")
    if not hasattr(os, "fork"):
        raise ReproError(
            "multi-worker serving forks its workers and this platform "
            "has no os.fork; serve with --workers 1"
        )

    supervisor = _Supervisor(
        config,
        host=host,
        port=port,
        workers=workers,
        grace_seconds=grace_seconds,
        port_file=port_file,
        on_ready=on_ready,
    )
    return supervisor.run()


class _Supervisor:
    def __init__(
        self,
        config: ServerConfig,
        *,
        host: str,
        port: int,
        workers: int,
        grace_seconds: float,
        port_file: Optional[str],
        on_ready: Optional[Callable[[int], None]],
    ):
        self.config = config
        self.host = host
        self.port = port
        self.workers = workers
        self.grace_seconds = grace_seconds
        self.port_file = port_file
        self.on_ready = on_ready

        self._listener: Optional[socket.socket] = None
        self._service: Optional[SynthesisService] = None
        self._stats_dir: Optional[str] = None
        self._handles: Dict[int, Optional[_WorkerHandle]] = {}
        self._restart_at: Dict[int, float] = {}
        self._backoff: Dict[int, float] = {}
        self._stop_requested = False
        self._hup_requested = False

    # -- worker lifecycle ----------------------------------------------

    def _fork_worker(self, slot: int) -> _WorkerHandle:
        assert self._service is not None and self._listener is not None
        pid = os.fork()
        if pid != 0:
            return _WorkerHandle(slot, pid)
        # ---- child ----
        code = 70  # EX_SOFTWARE unless the worker body says otherwise
        try:
            # The parent's supervisor handlers are registered in this
            # (copied) interpreter too; drop them before run_http
            # installs the worker's own drain/reload handlers.
            for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
                signal.signal(signum, signal.SIG_DFL)
            code = _worker_serve(
                self._service,
                self._listener,
                slot,
                self._stats_dir or ".",
                self.grace_seconds,
                os.getppid(),
            )
        except BaseException:
            traceback.print_exc()
        finally:
            # Never run the parent's cleanup (atexit, finally blocks up
            # the stack) in the child.
            os._exit(code)

    # -- main loop ------------------------------------------------------

    def run(self) -> bool:
        self._stats_dir = tempfile.mkdtemp(prefix="repro-serve-stats-")
        previous_handlers: Dict[int, Any] = {}
        try:
            self._listener = bind_listener(self.host, self.port)
            bound_port = self._listener.getsockname()[1]
            # Load-before-fork: build the whole service (snapshots
            # included) once; the forked workers share these pages
            # copy-on-write and only ever read them.
            self._service = SynthesisService(self.config)
            if self.port_file:
                write_port_file(self.port_file, bound_port)

            def _handle_stop(signum: int, frame: Any) -> None:
                self._stop_requested = True

            def _handle_hup(signum: int, frame: Any) -> None:
                self._hup_requested = True

            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers[signum] = signal.signal(
                    signum, _handle_stop
                )
            if hasattr(signal, "SIGHUP"):
                previous_handlers[signal.SIGHUP] = signal.signal(
                    signal.SIGHUP, _handle_hup
                )

            for slot in range(self.workers):
                self._backoff[slot] = RESTART_BACKOFF_BASE_SECONDS
                self._handles[slot] = self._fork_worker(slot)
            if self.on_ready is not None:
                self.on_ready(bound_port)

            while not self._stop_requested:
                time.sleep(_SUPERVISOR_POLL_SECONDS)
                if self._hup_requested:
                    self._hup_requested = False
                    for handle in self._handles.values():
                        if handle is not None:
                            handle.signal(signal.SIGHUP)
                self._reap_and_restart()
            return self._shutdown()
        finally:
            for signum, handler in previous_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):
                    pass
            if self._listener is not None:
                self._listener.close()
            if self._stats_dir is not None:
                shutil.rmtree(self._stats_dir, ignore_errors=True)

    def _reap_and_restart(self) -> None:
        now = time.monotonic()
        for slot, handle in list(self._handles.items()):
            if handle is None:
                if now >= self._restart_at.get(slot, 0.0):
                    self._handles[slot] = self._fork_worker(slot)
                continue
            code = handle.poll()
            if code is None:
                if (
                    now - handle.started_at >= HEALTHY_RUN_SECONDS
                    and self._backoff[slot] != RESTART_BACKOFF_BASE_SECONDS
                ):
                    self._backoff[slot] = RESTART_BACKOFF_BASE_SECONDS
                continue
            backoff = self._backoff[slot]
            print(
                f"# worker {slot} (pid {handle.pid}) exited with code "
                f"{code}; restarting in {backoff:.1f}s",
                file=sys.stderr,
            )
            self._handles[slot] = None
            self._restart_at[slot] = now + backoff
            self._backoff[slot] = min(
                backoff * 2, RESTART_BACKOFF_MAX_SECONDS
            )

    def _shutdown(self) -> bool:
        live = [h for h in self._handles.values() if h is not None]
        for handle in live:
            handle.signal(signal.SIGTERM)
        # Workers bound-drain themselves; give them the grace period
        # plus a margin for teardown.
        deadline = time.monotonic() + self.grace_seconds + 10.0
        all_clean = True
        for handle in live:
            code = handle.poll()
            while code is None and time.monotonic() < deadline:
                time.sleep(_SUPERVISOR_POLL_SECONDS)
                code = handle.poll()
            if code is None:
                handle.signal(signal.SIGKILL)
                kill_deadline = time.monotonic() + 5.0
                while (
                    handle.poll() is None
                    and time.monotonic() < kill_deadline
                ):
                    time.sleep(_SUPERVISOR_POLL_SECONDS)
                all_clean = False
            elif code != 0:
                all_clean = False
        return all_clean
