"""Request scheduler: bounded queueing, backpressure, per-domain budgets.

:class:`RequestScheduler` sits between the serving transports and request
dispatch inside :class:`~repro.server.service.SynthesisService`.  It owns
every admission decision the service makes:

* **bounded queue with backpressure** — up to ``queue_depth`` requests
  wait for an execution slot instead of being shed.  Only when the queue
  itself is full does a request fail with :class:`QueueFull`, which
  carries a ``retry_after_ms`` hint derived from the observed service
  time (HTTP surfaces it as a ``Retry-After`` header on 429).  With
  ``queue_depth=0`` (the default) admission is exactly the pre-scheduler
  behaviour: at capacity, shed immediately.
* **deadline-aware scheduling** — a queued request's wait is bounded by
  its own synthesis budget.  When the deadline passes while the request
  is still waiting it fails with
  :class:`~repro.errors.DeadlineExceeded` *before* dispatch — an expired
  request never burns a worker slot.  The wait that was spent in the
  queue is deducted from the budget handed to the engines, so the
  request's deadline covers queueing *and* synthesis.
* **per-domain concurrency budgets** — each domain's slot budget
  defaults to a fair share, ``ceil(max_inflight / n_domains)``, and is
  *work-conserving*: while no other domain has a waiter, a domain may
  use every slot; the moment another domain queues, the fair-share
  fence is restored and the hot domain drains back to it.  With
  ``queue_depth=0`` nobody ever waits, so every domain may use all
  ``max_inflight`` slots.  Budgets set explicitly via
  ``domain_budgets`` are hard fences and are never raised, so one hot
  domain cannot starve the rest.
* **priority classes** — every request carries a priority from
  :data:`PRIORITIES` (``interactive`` > ``batch``; the default is
  ``interactive``, which is also the exact pre-priority behaviour).
  Admission is strict-priority: whenever a slot frees, *every*
  dispatchable interactive waiter is granted before any batch waiter is
  considered; within one class order stays FIFO-with-eligibility.  When
  the queue is full an arriving interactive request evicts the youngest
  waiting batch request (which sheds with ``QueueFull`` and the usual
  retry hint) instead of being shed itself — batch traffic can never
  make the server turn interactive traffic away while batch work is
  still waiting.
* **deadline-sized queue** — the live queue bound follows the EWMA
  service time: a queue slot is only useful if the wait it implies fits
  inside the target deadline, so the effective capacity is
  ``clamp(max_inflight * (target_deadline / ewma - 1), 1, queue_depth)``
  (the capacity-planning rule of thumb from docs/serving.md, applied
  continuously).  Fast service ⇒ the full configured queue; slow
  service ⇒ shed early instead of queueing requests that are doomed to
  expire.  ``queue_depth=0`` stays 0.

Dispatch order is FIFO with eligibility inside each priority class: the
oldest waiter whose domain is under budget runs first; a waiter blocked
on its domain's budget does not block younger waiters of other domains
(no cross-domain head-of-line blocking).  Within one domain and class,
order is strictly FIFO.

The scheduler is also the service's single source of truth for in-flight
accounting: :meth:`begin_shutdown` wakes every waiter with
:class:`SchedulerDraining` and :meth:`drain` blocks until the last
granted slot is released — the graceful-shutdown sequence both front
ends rely on.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Mapping, Optional, Tuple

from repro.errors import DeadlineExceeded, ReproError

__all__ = [
    "Grant",
    "PRIORITIES",
    "QueueFull",
    "RequestScheduler",
    "SchedulerDraining",
]

#: Admission classes, highest priority first.  The first entry is the
#: default for requests that do not specify one.
PRIORITIES: Tuple[str, ...] = ("interactive", "batch")

#: Floor / ceiling for the ``retry_after_ms`` backpressure hint.
MIN_RETRY_AFTER_MS = 50
MAX_RETRY_AFTER_MS = 60_000

#: Assumed service time (seconds) for the retry hint before any request
#: has completed — deliberately pessimistic for a cold server.
DEFAULT_SERVICE_SECONDS = 0.1

#: EWMA smoothing for the observed per-request service time.
_EWMA_ALPHA = 0.2

#: Fallback deadline (seconds) the queue is sized against when the
#: caller does not provide one (matches ServerConfig.default_timeout).
DEFAULT_TARGET_DEADLINE_SECONDS = 20.0

# Waiter lifecycle: exactly one transition away from WAITING, performed
# under the scheduler lock by whoever decides the outcome (the pump on
# grant/expiry, begin_shutdown on drain, an arriving interactive request
# on evict, the waiter thread on its own deadline) — so every waiter is
# counted exactly once.
_WAITING = "waiting"
_GRANTED = "granted"
_EXPIRED = "expired"
_DRAINING = "draining"
_EVICTED = "evicted"

#: Admission events counted per priority class, in ``/stats`` order.
_EVENTS: Tuple[str, ...] = (
    "admitted",  # granted a slot (immediately or queued)
    "queued",    # of which waited in the queue first
    "shed",      # rejected: queue full / queueing disabled
    "expired",   # deadline passed while waiting
    "evicted",   # batch waiter displaced by interactive
    "drained",   # rejected or woken by shutdown
)


class QueueFull(ReproError):
    """Admission failed: no free slot and the wait queue is at capacity
    (or queueing is disabled), or a queued batch request was evicted to
    make room for an interactive one.  Maps to the stable ``overloaded``
    wire code; ``retry_after_ms`` is the backpressure hint."""

    def __init__(self, message: str, retry_after_ms: int):
        self.retry_after_ms = retry_after_ms
        super().__init__(message)


class SchedulerDraining(ReproError):
    """Admission failed: the scheduler is shutting down.  Maps to the
    stable ``shutting_down`` wire code."""


@dataclass(frozen=True)
class Grant:
    """A successfully acquired execution slot.

    ``queue_wait_seconds`` is how long the request waited for the slot
    (0 for an immediate grant); callers deduct it from the synthesis
    budget and release the slot via :meth:`RequestScheduler.release`.
    """

    domain: str
    queue_wait_seconds: float


class _Waiter:
    """One queued request (internal)."""

    __slots__ = ("domain", "priority", "deadline", "enqueued_at", "state")

    def __init__(
        self, domain: str, priority: str, deadline: float, enqueued_at: float
    ):
        self.domain = domain
        self.priority = priority
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        self.state = _WAITING


class RequestScheduler:
    """Admission control for a fixed set of domains (see module docstring).

    Thread-safe; every public method may be called from any transport
    thread.  ``domain_budgets`` maps domain name -> slot budget; domains
    not listed get the work-conserving fair share described in the
    module docstring.  ``target_deadline_seconds`` is the deadline the
    effective queue capacity is sized against (typically the service's
    default request timeout).
    """

    def __init__(
        self,
        *,
        max_inflight: int,
        queue_depth: int = 0,
        domains: Tuple[str, ...] = (),
        domain_budgets: Optional[Mapping[str, int]] = None,
        target_deadline_seconds: Optional[float] = None,
    ):
        if max_inflight < 1:
            raise ReproError("max_inflight must be >= 1")
        if queue_depth < 0:
            raise ReproError("queue_depth must be >= 0")
        if not domains:
            raise ReproError("the scheduler needs at least one domain")
        if target_deadline_seconds is not None and target_deadline_seconds <= 0:
            raise ReproError("target_deadline_seconds must be positive")
        budgets = dict(domain_budgets or {})
        unknown = sorted(set(budgets) - set(domains))
        if unknown:
            raise ReproError(
                f"domain budget(s) for unserved domain(s) {unknown}; "
                f"served: {sorted(domains)}"
            )
        for name, value in budgets.items():
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ReproError(
                    f"domain budget for {name!r} must be a positive "
                    f"integer, got {value!r}"
                )

        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self._target_deadline_seconds = (
            target_deadline_seconds
            if target_deadline_seconds is not None
            else DEFAULT_TARGET_DEADLINE_SECONDS
        )
        default_budget = max(1, math.ceil(max_inflight / len(domains)))
        #: Domains with an operator-set budget: hard fences that are
        #: never raised.
        self._explicit_budgets = frozenset(budgets)
        self.budgets: Dict[str, int] = {
            name: min(max_inflight, budgets.get(name, default_budget))
            for name in domains
        }

        self._cond = threading.Condition(threading.Lock())
        self._inflight_total = 0
        self._inflight: Dict[str, int] = {name: 0 for name in domains}
        self._waiters: Deque[_Waiter] = deque()
        self._draining = False
        self._service_ewma_seconds: Optional[float] = None
        #: Slots released after dispatch (a release carries no priority).
        self._completed = 0
        #: Admission events per priority class; ``snapshot()`` sums them.
        self._priority_counters: Dict[str, Dict[str, int]] = {
            priority: dict.fromkeys(_EVENTS, 0) for priority in PRIORITIES
        }
        self._queue_wait_total_ms = 0.0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    @property
    def queueing_enabled(self) -> bool:
        return self.queue_depth > 0

    def acquire(
        self,
        domain: str,
        timeout_seconds: float,
        priority: str = PRIORITIES[0],
    ) -> Grant:
        """Acquire an execution slot for ``domain``, waiting up to
        ``timeout_seconds`` (the request's whole budget) when queueing is
        enabled.  ``priority`` is one of :data:`PRIORITIES`.

        Raises :class:`QueueFull` (shed or evicted),
        :class:`SchedulerDraining` (shutdown), or
        :class:`~repro.errors.DeadlineExceeded` (the budget elapsed
        while waiting).
        """
        if domain not in self._inflight:
            raise ReproError(f"unknown scheduler domain {domain!r}")
        if priority not in PRIORITIES:
            raise ReproError(
                f"unknown priority {priority!r}; expected one of "
                f"{list(PRIORITIES)}"
            )
        now = time.monotonic()
        with self._cond:
            if self._draining:
                self._priority_counters[priority]["drained"] += 1
                raise SchedulerDraining(
                    "service is draining; retry against another replica"
                )
            # Immediate grants cannot jump a grantable higher-priority
            # waiter: release() pumps before dropping the lock, so any
            # waiter still queued here is blocked on its domain budget,
            # not on a free slot.
            if self._can_dispatch(domain):
                self._admit(domain, priority)
                return Grant(domain, 0.0)
            if self._waiting_count() >= self._effective_queue_capacity():
                if priority == PRIORITIES[0] and self._evict_batch_waiter():
                    pass  # a batch slot was freed for this request
                else:
                    self._priority_counters[priority]["shed"] += 1
                    raise QueueFull(
                        self._shed_message(), self._retry_after_ms_locked()
                    )
            waiter = _Waiter(domain, priority, now + timeout_seconds, now)
            self._waiters.append(waiter)
            try:
                while waiter.state == _WAITING:
                    remaining = waiter.deadline - time.monotonic()
                    if remaining <= 0:
                        waiter.state = _EXPIRED
                        self._priority_counters[priority]["expired"] += 1
                        break
                    self._cond.wait(timeout=remaining)
            finally:
                if waiter.state != _GRANTED:
                    self._discard(waiter)
            waited = time.monotonic() - waiter.enqueued_at
            if waiter.state == _GRANTED:
                self._priority_counters[priority]["queued"] += 1
                self._queue_wait_total_ms += waited * 1000.0
                return Grant(domain, waited)
            if waiter.state == _DRAINING:
                raise SchedulerDraining(
                    "service is draining; retry against another replica"
                )
            if waiter.state == _EVICTED:
                raise QueueFull(
                    "evicted from the queue by an interactive request; "
                    "retry after the hint",
                    self._retry_after_ms_locked(),
                )
            raise DeadlineExceeded(waited)

    def release(
        self, domain: str, *, service_seconds: Optional[float] = None
    ) -> None:
        """Return a granted slot.  ``service_seconds`` (dispatch wall
        time) feeds the EWMA behind the ``retry_after_ms`` hint and the
        effective queue capacity."""
        with self._cond:
            self._inflight_total -= 1
            self._inflight[domain] -= 1
            self._completed += 1
            if service_seconds is not None and service_seconds >= 0:
                if self._service_ewma_seconds is None:
                    self._service_ewma_seconds = service_seconds
                else:
                    self._service_ewma_seconds += _EWMA_ALPHA * (
                        service_seconds - self._service_ewma_seconds
                    )
            self._pump()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Internals (all called with the lock held)
    # ------------------------------------------------------------------

    def _waiting_count(self) -> int:
        return sum(1 for w in self._waiters if w.state == _WAITING)

    def _effective_queue_capacity(self) -> int:
        """The live queue bound: ``queue_depth``, shrunk when the EWMA
        service time says queued requests would blow the target deadline
        anyway (never above the configured depth, never below 1 unless
        queueing is disabled)."""
        service = self._service_ewma_seconds
        if service is None or service <= 0:
            return self.queue_depth
        headroom = self._target_deadline_seconds / service - 1.0
        bound = int(self.max_inflight * headroom)
        return min(self.queue_depth, max(1, bound))

    def _effective_budget(self, domain: str) -> int:
        """The live slot budget for ``domain``.  Explicit budgets are
        hard fences; an implicit (fair-share) budget is work-conserving
        — the whole server while nobody else waits, the fair share the
        moment another domain queues."""
        budget = self.budgets[domain]
        if domain in self._explicit_budgets:
            return budget
        for waiter in self._waiters:
            if waiter.state == _WAITING and waiter.domain != domain:
                return budget
        return self.max_inflight

    def _can_dispatch(self, domain: str) -> bool:
        return (
            self._inflight_total < self.max_inflight
            and self._inflight[domain] < self._effective_budget(domain)
        )

    def _admit(self, domain: str, priority: str) -> None:
        self._inflight_total += 1
        self._inflight[domain] += 1
        self._priority_counters[priority]["admitted"] += 1

    def _evict_batch_waiter(self) -> bool:
        """Displace the youngest waiting batch request to admit an
        interactive one into a full queue.  Returns False when every
        waiter is interactive (the arrival sheds instead)."""
        for waiter in reversed(self._waiters):
            if waiter.state == _WAITING and waiter.priority != PRIORITIES[0]:
                waiter.state = _EVICTED
                self._priority_counters[waiter.priority]["evicted"] += 1
                self._discard(waiter)
                self._cond.notify_all()
                return True
        return False

    def _pump(self) -> None:
        """Grant slots to waiters: strict priority across classes,
        oldest-first within a class, skipping waiters whose domain is at
        budget (they keep their place), expiring waiters whose deadline
        passed."""
        if not self._waiters:
            return
        now = time.monotonic()
        for waiter in self._waiters:
            if waiter.state == _WAITING and waiter.deadline <= now:
                waiter.state = _EXPIRED
                self._priority_counters[waiter.priority]["expired"] += 1
        for priority in PRIORITIES:
            for waiter in self._waiters:
                if (
                    waiter.state == _WAITING
                    and waiter.priority == priority
                    and self._can_dispatch(waiter.domain)
                ):
                    waiter.state = _GRANTED
                    self._admit(waiter.domain, priority)
        self._waiters = deque(
            w for w in self._waiters if w.state == _WAITING
        )

    def _discard(self, waiter: _Waiter) -> None:
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass  # the pump already dropped it

    def _shed_message(self) -> str:
        if not self.queueing_enabled:
            return (
                f"at capacity ({self.max_inflight} in flight); "
                "retry with backoff"
            )
        return (
            f"queue full ({self._waiting_count()} waiting, "
            f"{self._inflight_total} in flight); retry after the hint"
        )

    def _retry_after_ms_locked(self) -> int:
        service = self._service_ewma_seconds
        if service is None or service <= 0:
            service = DEFAULT_SERVICE_SECONDS
        # Rough time until a queue slot frees: the backlog ahead of a
        # retrying client, drained max_inflight at a time.
        backlog = self._waiting_count() + 1
        hint = service * backlog / self.max_inflight
        return max(
            MIN_RETRY_AFTER_MS, min(MAX_RETRY_AFTER_MS, int(hint * 1000))
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_shutdown(self) -> None:
        """Stop admitting; every queued waiter fails with
        :class:`SchedulerDraining`.  Granted slots keep running."""
        with self._cond:
            self._draining = True
            for waiter in self._waiters:
                if waiter.state == _WAITING:
                    waiter.state = _DRAINING
                    self._priority_counters[waiter.priority]["drained"] += 1
            self._waiters.clear()
            self._cond.notify_all()

    def drain(self, grace_seconds: Optional[float] = None) -> bool:
        """Block until every granted slot is released.  Returns False if
        ``grace_seconds`` elapsed with work still in flight."""
        deadline = (
            None if grace_seconds is None
            else time.monotonic() + grace_seconds
        )
        with self._cond:
            while self._inflight_total > 0:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def inflight_total(self) -> int:
        with self._cond:
            return self._inflight_total

    @property
    def queued(self) -> int:
        with self._cond:
            return self._waiting_count()

    def snapshot(self) -> Dict[str, Any]:
        """The scheduler section of ``/stats`` and ``/healthz``."""
        with self._cond:
            queued_by_domain: Dict[str, int] = {
                name: 0 for name in self._inflight
            }
            queued_by_priority: Dict[str, int] = {
                name: 0 for name in PRIORITIES
            }
            for waiter in self._waiters:
                if waiter.state == _WAITING:
                    queued_by_domain[waiter.domain] += 1
                    queued_by_priority[waiter.priority] += 1
            totals = {
                event: sum(c[event] for c in self._priority_counters.values())
                for event in _EVENTS
            }
            served = totals["queued"]
            avg_wait = (
                round(self._queue_wait_total_ms / served, 3) if served else 0.0
            )
            # ``/stats`` lists ``completed`` right after ``queued``.
            counters = {
                "admitted": totals.pop("admitted"),
                "queued": totals.pop("queued"),
                "completed": self._completed,
                **totals,
            }
            return {
                "queueing_enabled": self.queueing_enabled,
                "queue_depth": sum(queued_by_domain.values()),
                "queue_capacity": self.queue_depth,
                "effective_queue_capacity": self._effective_queue_capacity(),
                "max_inflight": self.max_inflight,
                "inflight": self._inflight_total,
                "avg_queue_wait_ms": avg_wait,
                "counters": counters,
                "priorities": {
                    name: {
                        "queued": queued_by_priority[name],
                        "counters": dict(self._priority_counters[name]),
                    }
                    for name in PRIORITIES
                },
                "domains": {
                    name: {
                        "inflight": self._inflight[name],
                        "budget": self.budgets[name],
                        "effective_budget": self._effective_budget(name),
                        "queued": queued_by_domain[name],
                    }
                    for name in sorted(self._inflight)
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestScheduler(inflight={self.inflight_total}/"
            f"{self.max_inflight}, queue={self.queued}/{self.queue_depth})"
        )
