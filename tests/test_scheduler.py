"""Unit tests for repro.server.scheduler: bounded queueing, backpressure,
deadline-aware dispatch, per-domain budgets, and lifecycle."""

import threading
import time

import pytest

from repro.errors import DeadlineExceeded, ReproError
from repro.server.scheduler import (
    MAX_RETRY_AFTER_MS,
    MIN_RETRY_AFTER_MS,
    PRIORITIES,
    Grant,
    QueueFull,
    RequestScheduler,
    SchedulerDraining,
)

DOMAINS = ("textediting", "astmatcher")


def make(**kwargs):
    kwargs.setdefault("max_inflight", 2)
    kwargs.setdefault("domains", DOMAINS)
    return RequestScheduler(**kwargs)


def acquire_in_thread(scheduler, domain, timeout, priority="interactive"):
    """Start an acquire on a worker thread; returns (thread, box) where
    box["grant"] / box["error"] is filled in when the acquire resolves."""
    box = {}

    def _run():
        try:
            box["grant"] = scheduler.acquire(domain, timeout, priority)
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            box["error"] = exc

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread, box


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------


class TestConstruction:
    def test_requires_domains(self):
        with pytest.raises(ReproError, match="at least one domain"):
            RequestScheduler(max_inflight=2, domains=())

    def test_rejects_budget_for_unserved_domain(self):
        with pytest.raises(ReproError, match="unserved"):
            make(domain_budgets={"nosuch": 1})

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "2"])
    def test_rejects_non_positive_int_budgets(self, bad):
        with pytest.raises(ReproError, match="positive integer"):
            make(domain_budgets={"textediting": bad})

    def test_queueing_mode_budget_defaults_to_fair_share(self):
        sched = RequestScheduler(
            max_inflight=4, queue_depth=8, domains=("a", "b", "c")
        )
        # ceil(4 / 3) == 2
        assert sched.budgets == {"a": 2, "b": 2, "c": 2}
        assert sched.queueing_enabled

    def test_explicit_budget_clamped_to_max_inflight(self):
        sched = make(max_inflight=2, domain_budgets={"textediting": 99})
        assert sched.budgets["textediting"] == 2

    def test_unknown_domain_acquire_rejected(self):
        with pytest.raises(ReproError, match="unknown scheduler domain"):
            make().acquire("nosuch", 1.0)


# ----------------------------------------------------------------------
# No queue (queue_depth=0, the default): immediate shed at capacity
# ----------------------------------------------------------------------


class TestLegacyMode:
    def test_immediate_grant_under_capacity(self):
        sched = make()
        grant = sched.acquire("textediting", 1.0)
        assert grant == Grant("textediting", 0.0)
        assert sched.inflight_total == 1
        sched.release("textediting")
        assert sched.inflight_total == 0

    def test_one_domain_may_take_every_slot_without_queueing(self):
        sched = make(max_inflight=8)
        assert not sched.queueing_enabled
        for _ in range(8):
            assert sched.acquire("textediting", 1.0) == Grant(
                "textediting", 0.0
            )
        with pytest.raises(QueueFull, match="at capacity"):
            sched.acquire("textediting", 1.0)
        domain = sched.snapshot()["domains"]["textediting"]
        assert domain["budget"] == 4  # the fair share of 8 over 2
        assert domain["effective_budget"] == 8
        assert domain["inflight"] == 8

    def test_shed_at_capacity_with_legacy_message(self):
        sched = make(max_inflight=1)
        sched.acquire("textediting", 1.0)
        with pytest.raises(QueueFull) as info:
            sched.acquire("astmatcher", 1.0)
        assert "at capacity (1 in flight); retry with backoff" in str(
            info.value
        )
        assert (
            MIN_RETRY_AFTER_MS
            <= info.value.retry_after_ms
            <= MAX_RETRY_AFTER_MS
        )
        assert sched.snapshot()["counters"]["shed"] == 1


# ----------------------------------------------------------------------
# Bounded queue with backpressure
# ----------------------------------------------------------------------


class TestQueueing:
    def test_waiter_granted_on_release_fifo(self):
        sched = make(max_inflight=1, queue_depth=4)
        sched.acquire("textediting", 5.0)
        threads = []
        for _ in range(3):
            threads.append(acquire_in_thread(sched, "textediting", 5.0))
            # Give each waiter time to enqueue so the order is known.
            assert wait_until(lambda: sched.queued == len(threads))
        # Release grants the oldest waiter, one at a time.
        for i, (thread, box) in enumerate(threads):
            sched.release("textediting")
            thread.join(timeout=5.0)
            assert "grant" in box, box.get("error")
            assert box["grant"].queue_wait_seconds > 0
            # Younger waiters are still queued.
            assert sched.queued == len(threads) - i - 1
        sched.release("textediting")
        counters = sched.snapshot()["counters"]
        assert counters["admitted"] == 4
        assert counters["queued"] == 3
        assert counters["shed"] == 0

    def test_queue_full_sheds_with_retry_hint(self):
        sched = make(max_inflight=1, queue_depth=1)
        sched.acquire("textediting", 5.0)
        thread, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        with pytest.raises(QueueFull) as info:
            sched.acquire("textediting", 5.0)
        assert "queue full" in str(info.value)
        assert info.value.retry_after_ms >= MIN_RETRY_AFTER_MS
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")

    def test_retry_hint_tracks_observed_service_time(self):
        sched = make(max_inflight=1, queue_depth=1)
        sched.acquire("textediting", 5.0)
        sched.release("textediting", service_seconds=40.0)
        sched.acquire("textediting", 5.0)
        _, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        with pytest.raises(QueueFull) as info:
            sched.acquire("textediting", 5.0)
        # EWMA seeded at 40s; backlog of 2 over 1 slot >> the floor.
        assert info.value.retry_after_ms > 1000
        assert info.value.retry_after_ms <= MAX_RETRY_AFTER_MS
        sched.release("textediting")
        assert wait_until(lambda: "grant" in box)
        sched.release("textediting")

    def test_deadline_expires_while_queued(self):
        sched = make(max_inflight=1, queue_depth=4)
        sched.acquire("textediting", 5.0)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded) as info:
            sched.acquire("textediting", 0.05)
        waited = time.monotonic() - started
        assert waited >= 0.05
        assert info.value.waited_seconds >= 0.05
        assert "never dispatched" in str(info.value)
        counters = sched.snapshot()["counters"]
        assert counters["expired"] == 1
        assert counters["admitted"] == 1  # the expired request never ran
        sched.release("textediting")
        assert sched.queued == 0

    def test_expired_waiter_does_not_receive_slot_on_release(self):
        sched = make(max_inflight=1, queue_depth=4)
        sched.acquire("textediting", 5.0)
        thread, box = acquire_in_thread(sched, "textediting", 0.05)
        thread.join(timeout=5.0)
        assert isinstance(box.get("error"), DeadlineExceeded)
        # The release after expiry must not count the dead waiter.
        sched.release("textediting")
        assert sched.inflight_total == 0
        assert sched.snapshot()["counters"]["admitted"] == 1


# ----------------------------------------------------------------------
# Per-domain budgets
# ----------------------------------------------------------------------


class TestDomainBudgets:
    def test_domain_at_budget_does_not_block_other_domain(self):
        sched = make(
            max_inflight=2,
            queue_depth=4,
            domain_budgets={"textediting": 1, "astmatcher": 1},
        )
        sched.acquire("textediting", 5.0)
        # textediting is at budget: its next request queues ...
        thread, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        # ... but astmatcher still gets the second global slot at once,
        # jumping past the older blocked waiter (no HOL blocking).
        grant = sched.acquire("astmatcher", 5.0)
        assert grant.queue_wait_seconds == 0.0
        sched.release("astmatcher")
        assert sched.queued == 1  # textediting waiter still blocked
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")

    def test_budget_caps_domain_below_global_capacity(self):
        sched = make(
            max_inflight=4, queue_depth=4,
            domain_budgets={"textediting": 1},
        )
        sched.acquire("textediting", 5.0)
        _, box = acquire_in_thread(sched, "textediting", 0.08)
        assert wait_until(lambda: sched.queued == 1)
        snap = sched.snapshot()
        assert snap["domains"]["textediting"] == {
            "inflight": 1, "budget": 1, "effective_budget": 1, "queued": 1,
        }
        assert wait_until(lambda: isinstance(
            box.get("error"), DeadlineExceeded
        ))
        sched.release("textediting")


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_begin_shutdown_rejects_new_arrivals(self):
        sched = make()
        sched.begin_shutdown()
        with pytest.raises(SchedulerDraining, match="draining"):
            sched.acquire("textediting", 1.0)

    def test_begin_shutdown_wakes_queued_waiters(self):
        sched = make(max_inflight=1, queue_depth=4)
        sched.acquire("textediting", 5.0)
        threads = [acquire_in_thread(sched, "astmatcher", 5.0)
                   for _ in range(2)]
        assert wait_until(lambda: sched.queued == 2)
        sched.begin_shutdown()
        for thread, box in threads:
            thread.join(timeout=5.0)
            assert isinstance(box.get("error"), SchedulerDraining)
        # The granted slot keeps running and still releases cleanly.
        assert sched.inflight_total == 1
        sched.release("textediting")
        assert sched.snapshot()["counters"]["drained"] == 2

    def test_drain_waits_for_inflight(self):
        sched = make()
        sched.acquire("textediting", 5.0)
        assert sched.drain(grace_seconds=0.05) is False
        releaser = threading.Timer(0.05, sched.release, ("textediting",))
        releaser.start()
        try:
            assert sched.drain(grace_seconds=5.0) is True
        finally:
            releaser.cancel()


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------


class TestSnapshot:
    def test_snapshot_shape(self):
        sched = make(max_inflight=2, queue_depth=3)
        sched.acquire("textediting", 5.0)
        snap = sched.snapshot()
        assert snap["queueing_enabled"] is True
        assert snap["queue_depth"] == 0
        assert snap["queue_capacity"] == 3
        assert snap["max_inflight"] == 2
        assert snap["inflight"] == 1
        assert snap["avg_queue_wait_ms"] == 0.0
        assert set(snap["counters"]) == {
            "admitted", "queued", "completed", "shed", "expired",
            "evicted", "drained",
        }
        assert "adaptive" not in snap
        assert snap["effective_queue_capacity"] == 3
        assert set(snap["priorities"]) == set(PRIORITIES)
        for section in snap["priorities"].values():
            assert section["queued"] == 0
            assert set(section["counters"]) == {
                "admitted", "queued", "shed", "expired", "evicted",
                "drained",
            }
        assert set(snap["domains"]) == set(DOMAINS)
        sched.release("textediting")
        assert sched.snapshot()["counters"]["completed"] == 1

    def test_counters_are_the_sum_over_priorities(self):
        sched = make(max_inflight=1, queue_depth=1)
        sched.acquire("textediting", 5.0, "batch")
        thread, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        with pytest.raises(QueueFull):
            sched.acquire("astmatcher", 5.0, "batch")
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")
        snap = sched.snapshot()
        assert list(snap["counters"].items()) == [
            ("admitted", 2), ("queued", 1), ("completed", 2), ("shed", 1),
            ("expired", 0), ("evicted", 0), ("drained", 0),
        ]
        assert snap["priorities"]["interactive"]["counters"] == {
            "admitted": 1, "queued": 1, "shed": 0, "expired": 0,
            "evicted": 0, "drained": 0,
        }
        assert snap["priorities"]["batch"]["counters"] == {
            "admitted": 1, "queued": 0, "shed": 1, "expired": 0,
            "evicted": 0, "drained": 0,
        }

    def test_avg_queue_wait_recorded(self):
        sched = make(max_inflight=1, queue_depth=2)
        sched.acquire("textediting", 5.0)
        thread, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        time.sleep(0.02)
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert box["grant"].queue_wait_seconds >= 0.02
        assert sched.snapshot()["avg_queue_wait_ms"] >= 20.0
        sched.release("textediting")


# ----------------------------------------------------------------------
# Priority classes
# ----------------------------------------------------------------------


class TestPriorities:
    def test_rejects_unknown_priority(self):
        with pytest.raises(ReproError, match="unknown priority"):
            make().acquire("textediting", 1.0, "bulk")

    def test_interactive_granted_before_older_batch_waiter(self):
        sched = make(max_inflight=1, queue_depth=4)
        sched.acquire("textediting", 5.0)
        batch_thread, batch_box = acquire_in_thread(
            sched, "textediting", 5.0, "batch"
        )
        assert wait_until(lambda: sched.queued == 1)
        inter_thread, inter_box = acquire_in_thread(
            sched, "textediting", 5.0, "interactive"
        )
        assert wait_until(lambda: sched.queued == 2)
        # The freed slot skips the older batch waiter.
        sched.release("textediting")
        inter_thread.join(timeout=5.0)
        assert "grant" in inter_box, inter_box.get("error")
        assert "grant" not in batch_box and "error" not in batch_box
        sched.release("textediting")
        batch_thread.join(timeout=5.0)
        assert "grant" in batch_box, batch_box.get("error")
        sched.release("textediting")
        prio = sched.snapshot()["priorities"]
        assert prio["interactive"]["counters"]["queued"] == 1
        assert prio["batch"]["counters"]["queued"] == 1

    def test_full_queue_interactive_evicts_youngest_batch(self):
        sched = make(max_inflight=1, queue_depth=2)
        sched.acquire("textediting", 5.0)
        old_thread, old_box = acquire_in_thread(
            sched, "textediting", 5.0, "batch"
        )
        assert wait_until(lambda: sched.queued == 1)
        young_thread, young_box = acquire_in_thread(
            sched, "textediting", 5.0, "batch"
        )
        assert wait_until(lambda: sched.queued == 2)
        # Queue is full: an interactive arrival displaces the *youngest*
        # batch waiter instead of being shed itself.
        inter_thread, inter_box = acquire_in_thread(
            sched, "textediting", 5.0, "interactive"
        )
        young_thread.join(timeout=5.0)
        error = young_box.get("error")
        assert isinstance(error, QueueFull)
        assert "evicted" in str(error)
        assert (
            MIN_RETRY_AFTER_MS <= error.retry_after_ms <= MAX_RETRY_AFTER_MS
        )
        assert wait_until(lambda: sched.queued == 2)
        snap = sched.snapshot()
        assert snap["counters"]["evicted"] == 1
        assert snap["counters"]["shed"] == 0
        assert snap["priorities"]["batch"]["counters"]["evicted"] == 1
        sched.release("textediting")
        inter_thread.join(timeout=5.0)
        assert "grant" in inter_box, inter_box.get("error")
        sched.release("textediting")
        old_thread.join(timeout=5.0)
        assert "grant" in old_box, old_box.get("error")
        sched.release("textediting")

    def test_full_queue_of_interactive_sheds_interactive_arrival(self):
        sched = make(max_inflight=1, queue_depth=1)
        sched.acquire("textediting", 5.0)
        thread, box = acquire_in_thread(
            sched, "textediting", 5.0, "interactive"
        )
        assert wait_until(lambda: sched.queued == 1)
        with pytest.raises(QueueFull, match="queue full"):
            sched.acquire("textediting", 5.0, "interactive")
        assert sched.snapshot()["counters"]["evicted"] == 0
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")

    def test_batch_arrival_never_evicts(self):
        sched = make(max_inflight=1, queue_depth=1)
        sched.acquire("textediting", 5.0)
        thread, box = acquire_in_thread(sched, "textediting", 5.0, "batch")
        assert wait_until(lambda: sched.queued == 1)
        with pytest.raises(QueueFull, match="queue full"):
            sched.acquire("textediting", 5.0, "batch")
        assert sched.snapshot()["counters"]["evicted"] == 0
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")

    def test_queued_expiry_ordering_under_mixed_priorities(self):
        """An interactive waiter whose deadline lapses while queued must
        not absorb the slot a release frees — the grant goes to the
        still-live batch waiter behind it despite the class gap."""
        sched = make(max_inflight=1, queue_depth=4)
        sched.acquire("textediting", 5.0)
        inter_thread, inter_box = acquire_in_thread(
            sched, "textediting", 0.05, "interactive"
        )
        assert wait_until(lambda: sched.queued == 1)
        batch_thread, batch_box = acquire_in_thread(
            sched, "textediting", 5.0, "batch"
        )
        assert wait_until(lambda: sched.queued == 2)
        inter_thread.join(timeout=5.0)
        assert isinstance(inter_box.get("error"), DeadlineExceeded)
        sched.release("textediting")
        batch_thread.join(timeout=5.0)
        assert "grant" in batch_box, batch_box.get("error")
        sched.release("textediting")
        prio = sched.snapshot()["priorities"]
        assert prio["interactive"]["counters"]["expired"] == 1
        assert prio["interactive"]["counters"]["queued"] == 0
        assert prio["batch"]["counters"]["queued"] == 1


# ----------------------------------------------------------------------
# Retry-hint clamping
# ----------------------------------------------------------------------


class TestRetryHintClamping:
    def _saturate(self, ewma_seconds):
        """One slot busy, one waiter queued, EWMA seeded: the next
        acquire sheds with a hint derived from ``ewma_seconds``."""
        sched = make(max_inflight=1, queue_depth=1)
        sched.acquire("textediting", 5.0)
        sched.release("textediting", service_seconds=ewma_seconds)
        sched.acquire("textediting", 5.0)
        thread, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        return sched, thread, box

    def test_hint_clamped_to_floor_for_tiny_service_time(self):
        sched, thread, box = self._saturate(0.0001)
        with pytest.raises(QueueFull) as info:
            sched.acquire("textediting", 5.0)
        # 0.1ms x backlog of 2 over 1 slot is well under the floor.
        assert info.value.retry_after_ms == MIN_RETRY_AFTER_MS
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")

    def test_hint_clamped_to_ceiling_for_huge_service_time(self):
        sched, thread, box = self._saturate(3600.0)
        with pytest.raises(QueueFull) as info:
            sched.acquire("textediting", 5.0)
        # An hour per request would suggest hours of backoff; the hint
        # still caps at the ceiling so clients keep probing.
        assert info.value.retry_after_ms == MAX_RETRY_AFTER_MS
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")


# ----------------------------------------------------------------------
# Drain with a non-empty priority queue
# ----------------------------------------------------------------------


class TestDrainWithPriorityQueue:
    def test_shutdown_wakes_mixed_priority_waiters(self):
        sched = make(max_inflight=1, queue_depth=4)
        sched.acquire("textediting", 5.0)
        waiters = [
            acquire_in_thread(sched, "astmatcher", 5.0, "batch"),
            acquire_in_thread(sched, "textediting", 5.0, "interactive"),
            acquire_in_thread(sched, "astmatcher", 5.0, "batch"),
        ]
        assert wait_until(lambda: sched.queued == 3)
        sched.begin_shutdown()
        for thread, box in waiters:
            thread.join(timeout=5.0)
            assert isinstance(box.get("error"), SchedulerDraining)
        prio = sched.snapshot()["priorities"]
        assert prio["interactive"]["counters"]["drained"] == 1
        assert prio["batch"]["counters"]["drained"] == 2
        # The granted slot keeps running and drain() still completes.
        assert sched.inflight_total == 1
        releaser = threading.Timer(0.05, sched.release, ("textediting",))
        releaser.start()
        try:
            assert sched.drain(grace_seconds=5.0) is True
        finally:
            releaser.cancel()
        assert sched.snapshot()["counters"]["drained"] == 3


# ----------------------------------------------------------------------
# Adaptive admission: deadline-sized queue, work-conserving budgets
# ----------------------------------------------------------------------


class TestAdaptive:
    def test_effective_capacity_tracks_service_time(self):
        sched = make(
            max_inflight=2, queue_depth=8,
            target_deadline_seconds=10.0,
        )
        # No completions yet: the configured depth stands.
        assert sched.snapshot()["effective_queue_capacity"] == 8
        sched.acquire("textediting", 5.0)
        sched.release("textediting", service_seconds=4.0)
        # 2 slots x (10s / 4s - 1) headroom = 3 useful queue slots.
        assert sched.snapshot()["effective_queue_capacity"] == 3

    def test_effective_capacity_clamped_at_both_ends(self):
        slow = make(
            max_inflight=2, queue_depth=4,
            target_deadline_seconds=1.0,
        )
        slow.acquire("textediting", 5.0)
        slow.release("textediting", service_seconds=50.0)
        # Service far above the deadline: never below one slot.
        assert slow.snapshot()["effective_queue_capacity"] == 1
        fast = make(
            max_inflight=2, queue_depth=4,
            target_deadline_seconds=10.0,
        )
        fast.acquire("textediting", 5.0)
        fast.release("textediting", service_seconds=0.001)
        # Service near zero: never above the configured depth.
        assert fast.snapshot()["effective_queue_capacity"] == 4

    def test_slow_service_shrinks_admission(self):
        sched = make(
            max_inflight=1, queue_depth=4,
            target_deadline_seconds=1.0,
        )
        sched.acquire("textediting", 5.0)
        sched.release("textediting", service_seconds=10.0)
        sched.acquire("textediting", 5.0)
        thread, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        # Configured depth is 4, but the effective capacity is 1.
        with pytest.raises(QueueFull, match="queue full"):
            sched.acquire("textediting", 5.0)
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")

    def test_implicit_budget_is_work_conserving(self):
        sched = make(max_inflight=2, queue_depth=4)
        # Fair share is 1, but with nobody else waiting the hot domain
        # may take both slots.
        sched.acquire("textediting", 5.0)
        grant = sched.acquire("textediting", 5.0)
        assert grant.queue_wait_seconds == 0.0
        domain = sched.snapshot()["domains"]["textediting"]
        assert domain["budget"] == 1 and domain["inflight"] == 2
        # The moment another domain queues, the fence is restored ...
        ast_thread, ast_box = acquire_in_thread(sched, "astmatcher", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        snap = sched.snapshot()["domains"]["textediting"]
        assert snap["effective_budget"] == 1
        text_thread, text_box = acquire_in_thread(
            sched, "textediting", 5.0
        )
        assert wait_until(lambda: sched.queued == 2)
        # ... so the next freed slot goes to astmatcher, not textediting.
        sched.release("textediting")
        ast_thread.join(timeout=5.0)
        assert "grant" in ast_box, ast_box.get("error")
        assert "grant" not in text_box
        sched.release("astmatcher")
        text_thread.join(timeout=5.0)
        assert "grant" in text_box, text_box.get("error")
        sched.release("textediting")
        sched.release("textediting")

    def test_explicit_budget_is_never_raised(self):
        sched = make(
            max_inflight=2, queue_depth=4,
            domain_budgets={"textediting": 1},
        )
        sched.acquire("textediting", 5.0)
        # No other domain is waiting, but the operator-set fence holds.
        thread, box = acquire_in_thread(sched, "textediting", 5.0)
        assert wait_until(lambda: sched.queued == 1)
        snap = sched.snapshot()["domains"]["textediting"]
        assert snap["effective_budget"] == 1
        sched.release("textediting")
        thread.join(timeout=5.0)
        assert "grant" in box
        sched.release("textediting")
