"""Tracing overhead guard: spans must stay in the noise on the warm path.

The staged pipeline's deal is observability for (almost) free: spans are
always recorded, and every stage pays two clock reads and a counter
snapshot.  This bench pins that bargain — warm-path
``Synthesizer.synthesize`` must stay within 5% of the six stage bodies
called directly with no context and no spans (tests/bare_pipeline.py) —
so span recording can never quietly grow into a tax on the paper's
near-real-time claim.

Methodology: outcome caching is disabled (a cache hit skips the stages
entirely, which would measure nothing), the path caches are pre-warmed,
and traced/bare sweeps are interleaved over several rounds taking the
best round each — min-of-rounds cancels scheduler noise that a single
round would fold into the ratio.

Writes ``/tmp/trace-overhead.json`` (uploaded as a CI artifact next to
the throughput numbers).
"""

import json
import time

from benchmarks.conftest import BENCH_TIMEOUT, _cases, _domain
from repro.synthesis.pipeline import Synthesizer
from tests.bare_pipeline import synthesize_bare

ROUNDS = 5
MAX_OVERHEAD_RATIO = 1.05
RESULT_PATH = "/tmp/trace-overhead.json"


def _sweep(synth, queries, traced):
    started = time.perf_counter()
    for query in queries:
        if traced:
            synth.synthesize(
                query, timeout_seconds=BENCH_TIMEOUT, record_cache_delta=False
            )
        else:
            synthesize_bare(synth.domain, synth.engine, query, BENCH_TIMEOUT)
    return time.perf_counter() - started


def test_trace_overhead_under_5_percent(benchmark):
    domain = _domain("textediting")
    # Only queries that synthesize cleanly: error/timeout paths have their
    # own exits and would add variance, not signal.
    synth = Synthesizer(domain, cache_outcomes=False)
    queries = []
    for case in _cases("textediting"):
        try:
            synth.synthesize(case.query, timeout_seconds=BENCH_TIMEOUT)
        except Exception:
            continue
        queries.append(case.query)
    assert len(queries) >= 10, "not enough warm queries to measure"

    def measure():
        plain = [float("inf")] * ROUNDS
        traced = [float("inf")] * ROUNDS
        for round_index in range(ROUNDS):
            plain[round_index] = _sweep(synth, queries, False)
            traced[round_index] = _sweep(synth, queries, True)
        return min(plain), min(traced)

    best_plain, best_traced = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    ratio = best_traced / best_plain
    summary = {
        "queries": len(queries),
        "rounds": ROUNDS,
        "best_untraced_seconds": best_plain,
        "best_traced_seconds": best_traced,
        "overhead_ratio": ratio,
        "max_allowed_ratio": MAX_OVERHEAD_RATIO,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    print()
    print(json.dumps(summary, indent=2))
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"tracing overhead {ratio:.3f}x exceeds "
        f"{MAX_OVERHEAD_RATIO}x on the warm path"
    )
