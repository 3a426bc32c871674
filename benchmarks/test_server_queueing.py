"""Scheduler behaviour of the synthesis server under overload.

``benchmarks/test_server_latency.py`` measures the warm fast path; this
bench measures what the request scheduler does when the offered load
exceeds capacity — the regime the bounded queue exists for:

* **saturation** — a fixed-delay synthesizer pins per-request service
  time, then 2x ``max_inflight`` worker threads hammer the service.
  With a sufficient queue depth and generous deadlines the scheduler
  must absorb the burst: zero shed, zero expired, every codelet
  byte-identical to direct synthesis.  The JSON summary records p50/p99
  round-trip latency and the shed rate so CI artifacts track queueing
  overhead over time.
* **budget isolation** — a flood on TextEditing (budget 1) runs beside
  sequential ASTMatcher probes.  The per-domain budgets must keep the
  flood from starving the probes: ASTMatcher's p99 queue wait stays
  under a bound implied by its own budget, not the flood's backlog.

Service times are injected (a delay wrapper around the real
synthesizers) so the load pattern is deterministic and the bench stays
fast; correctness is still asserted against direct synthesis.

Honours ``REPRO_BENCH_TIMEOUT``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

from benchmarks.conftest import BENCH_TIMEOUT
from perfbench.common import percentile
from repro import Synthesizer, load_domain
from repro.server import ServerConfig, SynthesisService

#: Injected per-request service time (seconds): long enough that the
#: queue actually fills, short enough that the bench stays quick.
SERVICE_DELAY = 0.03

#: Saturation phase: workers = OVERLOAD_FACTOR x max_inflight.
MAX_INFLIGHT = 4
OVERLOAD_FACTOR = 2
REQUESTS_PER_WORKER = 8

#: Budget-isolation phase: the ASTMatcher probe's p99 queue wait must
#: stay within its own budget's service-time bound (one probe at a time
#: against a dedicated slot ~ no wait), plus generous CI-noise slack.
ISOLATION_P99_BOUND_MS = SERVICE_DELAY * 1000 + 200.0

TE_QUERY = "print every line"
AST_QUERY = "find virtual methods"


class _Delayed:
    """Fixed service time around a real synthesizer."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def synthesize(self, query, timeout_seconds=None, **kwargs):
        time.sleep(self._delay)
        return self._inner.synthesize(query, timeout_seconds, **kwargs)


def _inject_delay(service, delay=SERVICE_DELAY):
    for state in service._domains.values():
        for engine, synth in state.synthesizers.items():
            state.synthesizers[engine] = _Delayed(synth, delay)


def _latency_stats(samples_seconds):
    return {
        "n": len(samples_seconds),
        "mean_ms": round(statistics.mean(samples_seconds) * 1000, 3),
        "p50_ms": round(percentile(samples_seconds, 50) * 1000, 3),
        "p99_ms": round(percentile(samples_seconds, 99) * 1000, 3),
        "max_ms": round(max(samples_seconds) * 1000, 3),
    }


def _run_saturation(direct):
    """2x-capacity offered load against a queue deep enough to absorb
    it: the scheduler must shed nothing and serve everything."""
    n_workers = MAX_INFLIGHT * OVERLOAD_FACTOR
    service = SynthesisService(ServerConfig(
        domains=("textediting",),
        max_inflight=MAX_INFLIGHT,
        queue_depth=n_workers * REQUESTS_PER_WORKER,  # generous
        default_timeout=BENCH_TIMEOUT,
    ))
    _inject_delay(service)
    samples = []
    payloads = []
    lock = threading.Lock()

    def worker():
        for _ in range(REQUESTS_PER_WORKER):
            started = time.monotonic()
            status, payload = service.handle_payload(
                {"query": TE_QUERY, "timeout": 30}
            )
            elapsed = time.monotonic() - started
            with lock:
                samples.append(elapsed)
                payloads.append((status, payload))

    threads = [threading.Thread(target=worker) for _ in range(n_workers)]
    wall_started = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    wall_seconds = time.monotonic() - wall_started
    scheduler = service.stats()["scheduler"]
    service.begin_shutdown()
    assert service.drain(grace_seconds=10) is True
    service.close()

    n_requests = n_workers * REQUESTS_PER_WORKER
    assert len(payloads) == n_requests
    for status, payload in payloads:
        assert status == 200, payload
        assert payload["codelet"] == direct[TE_QUERY]
    counters = scheduler["counters"]
    assert counters["shed"] == 0
    assert counters["expired"] == 0
    assert counters["admitted"] == n_requests

    queue_waits = [p["queue_wait_ms"] / 1000 for _, p in payloads]
    return {
        "workers": n_workers,
        "max_inflight": MAX_INFLIGHT,
        "overload_factor": OVERLOAD_FACTOR,
        "requests": n_requests,
        "injected_service_ms": SERVICE_DELAY * 1000,
        "wall_seconds": round(wall_seconds, 3),
        "latency": _latency_stats(samples),
        "queue_wait": _latency_stats(queue_waits),
        "shed": counters["shed"],
        "expired": counters["expired"],
        "shed_rate": round(counters["shed"] / n_requests, 4),
        "avg_queue_wait_ms": scheduler["avg_queue_wait_ms"],
    }


def _run_isolation(direct):
    """TextEditing flood vs sequential ASTMatcher probes: budgets must
    keep the probe's queue wait bounded by its own domain's budget."""
    service = SynthesisService(ServerConfig(
        domains=("textediting", "astmatcher"),
        max_inflight=2,
        queue_depth=64,
        domain_budgets={"textediting": 1, "astmatcher": 1},
        default_timeout=BENCH_TIMEOUT,
    ))
    _inject_delay(service)
    flood_payloads = []
    probe_payloads = []
    lock = threading.Lock()
    stop_flood = threading.Event()

    def flood():
        while not stop_flood.is_set():
            out = service.handle_payload({"query": TE_QUERY, "timeout": 30})
            with lock:
                flood_payloads.append(out)

    flooders = [threading.Thread(target=flood) for _ in range(4)]
    for t in flooders:
        t.start()
    time.sleep(SERVICE_DELAY * 2)  # let the flood saturate its budget
    for _ in range(10):
        started = time.monotonic()
        status, payload = service.handle_payload(
            {"query": AST_QUERY, "domain": "astmatcher", "timeout": 30}
        )
        probe_payloads.append((status, payload, time.monotonic() - started))
    stop_flood.set()
    for t in flooders:
        t.join(60)
    scheduler = service.stats()["scheduler"]
    service.begin_shutdown()
    assert service.drain(grace_seconds=10) is True
    service.close()

    for status, payload, _ in probe_payloads:
        assert status == 200, payload
        assert payload["codelet"] == direct[AST_QUERY]
    for status, payload in flood_payloads:
        assert status == 200, payload
        assert payload["codelet"] == direct[TE_QUERY]

    probe_waits_ms = [p["queue_wait_ms"] for _, p, _ in probe_payloads]
    probe_p99_ms = percentile(probe_waits_ms, 99)
    # The acceptance bound: the flood's backlog must not leak into the
    # probe domain's queue waits.
    assert probe_p99_ms <= ISOLATION_P99_BOUND_MS, (
        probe_waits_ms, scheduler,
    )
    return {
        "flood_requests": len(flood_payloads),
        "probe_requests": len(probe_payloads),
        "budgets": {"textediting": 1, "astmatcher": 1},
        "probe_latency": _latency_stats(
            [t for _, _, t in probe_payloads]
        ),
        "probe_queue_wait_p99_ms": round(probe_p99_ms, 3),
        "probe_queue_wait_bound_ms": ISOLATION_P99_BOUND_MS,
        "flood_queued": scheduler["counters"]["queued"],
    }


def _measure():
    direct = {
        TE_QUERY: Synthesizer(
            load_domain("textediting")
        ).synthesize(TE_QUERY).codelet,
        AST_QUERY: Synthesizer(
            load_domain("astmatcher")
        ).synthesize(AST_QUERY).codelet,
    }
    return {
        "injected_service_ms": SERVICE_DELAY * 1000,
        "saturation": _run_saturation(direct),
        "isolation": _run_isolation(direct),
    }


def test_server_queueing(benchmark):
    summary = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    print(json.dumps(summary, indent=2))

    saturation = summary["saturation"]
    assert saturation["shed_rate"] == 0.0
    # At 2x capacity the average request must wait, i.e. the queue was
    # genuinely exercised rather than absorbed by idle slots.
    assert saturation["queue_wait"]["p50_ms"] > 0.0
    assert (
        summary["isolation"]["probe_queue_wait_p99_ms"]
        <= summary["isolation"]["probe_queue_wait_bound_ms"]
    )
