"""Warm-path request latency of the long-running synthesis server.

The paper's near-real-time claim is about one synthesis; a deployment
additionally pays transport + routing + admission on every request.  This
bench boots a resident :class:`SynthesisService`, replays the TextEditing
suite once to reach outcome-cache steady state, then measures per-request
round-trip latency along both serving paths:

* **service** — :meth:`SynthesisService.handle_payload` (routing +
  admission + dispatch, no transport): the serving-layer overhead floor;
* **http** — full HTTP round trips through :class:`repro.client.HttpClient`
  against a live ``ThreadingHTTPServer`` on localhost.

The JSON summary records p50/p95/max warm latency (ms) and qps for each
path, so CI artifacts track serving overhead over time.  Correctness is
asserted the same way the batch benches do: every served codelet must be
byte-identical to a direct ``Synthesizer.synthesize``.

Honours ``REPRO_BENCH_LIMIT`` (cases) and ``REPRO_BENCH_TIMEOUT``.
"""

from __future__ import annotations

import json
import statistics
import time

from benchmarks.conftest import BENCH_LIMIT, BENCH_TIMEOUT, _cases
from perfbench.common import percentile
from repro import Synthesizer
from repro.client import HttpClient
from repro.domains import clear_cached_domains
from repro.domains.textediting import build_domain as build_textediting
from repro.server import ServerConfig, SynthesisService, start_http_server

#: Warm measurement passes over the suite (more passes, tighter tails).
N_PASSES = 3

#: Generous ceiling on warm p50 — a warm request is an outcome-cache hit
#: plus serving overhead, far below this even on a loaded CI runner.  The
#: bound exists to catch order-of-magnitude regressions (e.g. a cold
#: pipeline run sneaking back into the warm path), not to measure.
MAX_WARM_P50_SECONDS = 0.25


def _queries():
    return [c.query for c in _cases("textediting")]


def _latency_stats(samples):
    return {
        "n": len(samples),
        "mean_ms": round(statistics.mean(samples) * 1000, 3),
        "p50_ms": round(percentile(samples, 50) * 1000, 3),
        "p95_ms": round(percentile(samples, 95) * 1000, 3),
        "max_ms": round(max(samples) * 1000, 3),
        "qps": round(len(samples) / sum(samples), 2),
    }


def _measure():
    queries = _queries()
    # Reference run on a private domain; the suite contains known-failure
    # cases, so the codelet comparison covers the ones that succeed.
    reference = Synthesizer(build_textediting(fresh=True)).synthesize_many(
        queries, timeout_seconds_each=BENCH_TIMEOUT
    )
    direct = {i.query: i.outcome.codelet for i in reference if i.ok}

    # Drop the registry's shared instance so the service's cold pass is
    # honestly cold (the reference run above never touched it, but other
    # benches in the session may have).
    clear_cached_domains()
    service = SynthesisService(ServerConfig(
        domains=("textediting",), default_timeout=BENCH_TIMEOUT,
    ))
    server = start_http_server(service, port=0)
    client = HttpClient(port=server.port)
    try:
        # Cold pass: fill the caches through the serving path.
        cold_started = time.monotonic()
        cold = {
            q: service.handle_payload({"query": q})[1] for q in queries
        }
        cold_seconds = time.monotonic() - cold_started

        service_samples = []
        http_samples = []
        codelets = {}
        for _ in range(N_PASSES):
            for query in queries:
                started = time.monotonic()
                _, payload = service.handle_payload({"query": query})
                service_samples.append(time.monotonic() - started)

                started = time.monotonic()
                status, payload = client.request(
                    "POST", "/synthesize", {"query": query}
                )
                http_samples.append(time.monotonic() - started)
                codelets[query] = payload.get("codelet")

        stats = service.stats()
    finally:
        server.shutdown()
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()

    summary = {
        "domain": "textediting",
        "n_queries": len(queries),
        "limit": BENCH_LIMIT,
        "timeout_seconds": BENCH_TIMEOUT,
        "passes": N_PASSES,
        "cold_pass_seconds": round(cold_seconds, 4),
        "warm_latency_service": _latency_stats(service_samples),
        "warm_latency_http": _latency_stats(http_samples),
        "outcome_cache_hits": stats["domains"]["textediting"]["counters"][
            "outcome_cache_hits"
        ],
        "requests_ok": stats["requests"]["ok"],
    }
    return direct, cold, codelets, summary


def test_server_latency(benchmark):
    direct, cold, codelets, summary = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    print()
    print(json.dumps(summary, indent=2))

    # Byte-identical to the in-process Synthesizer — on the cold serving
    # pass and on every warm pass, over both dispatch paths.
    for query, codelet in direct.items():
        assert cold[query]["codelet"] == codelet, query
        assert codelets[query] == codelet, query
    # Failure cases stay failures over the wire (structured, not dropped).
    for query, payload in cold.items():
        if query not in direct:
            assert payload["status"] in ("timeout", "error")
            assert payload["error"]["code"]

    # The warm path must be an outcome-cache hit, not a re-synthesis.
    assert summary["outcome_cache_hits"] > 0
    assert (
        summary["warm_latency_http"]["p50_ms"] / 1000 < MAX_WARM_P50_SECONDS
    ), summary
