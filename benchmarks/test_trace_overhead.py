"""Tracing overhead guard: spans must stay in the noise on the warm path.

The staged pipeline's deal is observability for (almost) free: spans are
always recorded, and every stage pays two clock reads (plus a counter
snapshot around ``merge``).  This bench pins that bargain — warm-path
``Synthesizer.synthesize`` must stay within 5% of the six stage functions
called directly with no context and no spans (tests/bare_pipeline.py) —
so span recording can never quietly grow into a tax on the paper's
near-real-time claim.

Methodology: outcome caching is disabled (a cache hit skips the stages
entirely, which would measure nothing) and the path caches are
pre-warmed.  Each round times every query once per side, the two sides
back to back with the order alternating, and keeps each query's fastest
time per side; the ratio is the sum of the traced minima over the sum of
the bare minima.  Pairing the sides per query keeps host-speed drift
within a sweep out of the ratio, which the minimum of whole sweeps did
not.

Writes ``/tmp/trace-overhead.json`` (uploaded as a CI artifact next to
the throughput numbers).
"""

import json
import time

from benchmarks.conftest import BENCH_TIMEOUT, _cases, _domain
from repro.synthesis.pipeline import Synthesizer
from tests.bare_pipeline import synthesize_bare

#: A round of 40 warm queries per side takes about 80 ms.  On a shared
#: 2-vCPU host one run's ratio swung by about ±1.5 % at 9 to 50 rounds and
#: by about ±0.5 % at 100, against an overhead near 4 %.
ROUNDS = 100
MAX_OVERHEAD_RATIO = 1.05
RESULT_PATH = "/tmp/trace-overhead.json"


def _time_query(synth, query, traced):
    started = time.perf_counter()
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
        plain = [float("inf")] * len(queries)
        traced = [float("inf")] * len(queries)
        for round_index in range(ROUNDS):
            for i, query in enumerate(queries):
                for side in ((False, True), (True, False))[
                    (round_index + i) % 2
                ]:
                    seconds = _time_query(synth, query, side)
                    best = traced if side else plain
                    if seconds < best[i]:
                        best[i] = seconds
        return sum(plain), sum(traced)

    plain_seconds, traced_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    ratio = traced_seconds / plain_seconds
    summary = {
        "queries": len(queries),
        "rounds": ROUNDS,
        "untraced_min_sum_seconds": plain_seconds,
        "traced_min_sum_seconds": traced_seconds,
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
