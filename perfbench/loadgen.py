"""Open-loop load generator.

Requests fall due on a fixed schedule whatever the server does.  A
dispatcher thread hands each request, at its due time, to a FIFO that
``connections`` sender threads drain; each sender owns one connection
(for HTTP, one keep-alive :class:`repro.client.HttpClient`, used as
shipped).  Latency is measured from the due time, so a stall on one
request shows up in every request queued behind it; lateness (send
start minus due time) and the FIFO depth at each hand-off (the backlog)
are reported alongside.  A request still unsent ``shed_after`` seconds
past its due time is dropped and counts as failed, which bounds a phase
that the server cannot keep up with.

An optional ``probe`` (a host-speed calibration, timed in a process of
its own: ``common.probe``) is called from the dispatcher thread at most
every ``PROBE_EVERY_S``, and only while no request is queued or in
flight and the next one is not due for ``PROBE_CLEARANCE_S``: the
server is idle while the probe runs, and the probe never delays a
request.  Its timings are returned with the phase.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: A sender: (connection index, request) -> (ok, response).  It must not
#: raise; transport errors are reported as ``(False, error)``.
Send = Callable[[int, Any], "tuple[bool, Any]"]

#: A probe needs this much idle time before the next due request.
PROBE_CLEARANCE_S = 0.03
#: Probes are at least this far apart (seconds).
PROBE_EVERY_S = 0.5


@dataclass
class Outcome:
    due: float = 0.0
    sent: Optional[float] = None
    done: Optional[float] = None
    ok: bool = False
    shed: bool = False
    response: Any = None

    @property
    def latency(self) -> Optional[float]:
        return None if self.done is None else self.done - self.due

    @property
    def lateness(self) -> Optional[float]:
        return None if self.sent is None else self.sent - self.due


@dataclass
class PhaseResult:
    outcomes: List[Outcome]
    backlog: List[int] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    #: (clock time, probe result) pairs.
    probes: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def backlog_max(self) -> int:
        return max(self.backlog, default=0)


def run_phase(send: Send, requests: Sequence[Any], offsets: Sequence[float],
              connections: int = 2, shed_after: float = 5.0,
              probe: Optional[Callable[[], float]] = None) -> PhaseResult:
    """Send ``requests[i]`` at ``start + offsets[i]`` (offsets ascending)
    and wait until every request has completed or been shed."""
    if len(requests) != len(offsets):
        raise ValueError("one offset per request")
    fifo: "queue.Queue[Optional[int]]" = queue.Queue()
    outcomes = [Outcome() for _ in requests]
    result = PhaseResult(outcomes)
    clock = time.perf_counter
    lock = threading.Lock()
    pending = [0]  # handed to the FIFO and not yet finished
    idle = threading.Event()  # set while nothing is pending
    idle.set()

    def sender(conn: int) -> None:
        while True:
            index = fifo.get()
            if index is None:
                return
            out = outcomes[index]
            now = clock()
            if now - out.due > shed_after:
                out.shed = True
            else:
                out.sent = now
                out.ok, out.response = send(conn, requests[index])
                out.done = clock()
            with lock:
                pending[0] -= 1
                if not pending[0]:
                    idle.set()

    threads = [
        threading.Thread(target=sender, args=(c,), daemon=True)
        for c in range(connections)
    ]
    for thread in threads:
        thread.start()
    start = clock()
    result.started = start
    probed_at = start - PROBE_EVERY_S
    for index, offset in enumerate(offsets):
        due = start + offset
        outcomes[index].due = due
        if probe is not None and clock() - probed_at >= PROBE_EVERY_S:
            idle.wait(timeout=max(0.0, due - PROBE_CLEARANCE_S - clock()))
            now = clock()
            if idle.is_set() and due - now >= PROBE_CLEARANCE_S:
                result.probes.append((now, probe()))
                probed_at = clock()
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        result.backlog.append(fifo.qsize())
        with lock:
            pending[0] += 1
            idle.clear()
        fifo.put(index)
    for _ in threads:
        fifo.put(None)
    for thread in threads:
        thread.join()
    result.finished = clock()
    return result
