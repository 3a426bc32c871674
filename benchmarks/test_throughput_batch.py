"""Serving throughput: serial vs process batches + grammar-cache snapshots.

The near-real-time claim of the paper is per query; a serving deployment
additionally cares about queries/sec over a stream of requests, where the
domain's cross-query caches (paths, conflicts, sizes, merges, outcomes —
see docs/performance.md) do the heavy lifting.  This bench measures the
TextEditing suite serially and over a process pool:

* cold — fresh domain, first pass (``synthesize_many``, one worker);
* warm — the same synthesizer re-running the same suite (outcome-cache
  steady state);
* process cold — first pass with ``max_workers=REPRO_BENCH_WORKERS``, shared domain instances dropped first
  so forked workers genuinely rebuild and fill their own caches;
* process snapshot-warmed — same, but each worker preloads the on-disk
  snapshot written after the cold pass (``Domain.save_cache``);
* snapshot-preloaded serial — fresh domain + ``Domain.load_cache``,
  measuring what the persistent cache alone buys a cold start.

Honours the usual knobs (``REPRO_BENCH_TIMEOUT``, ``REPRO_BENCH_LIMIT``)
and emits a JSON summary for downstream tooling.  The process-scaling
assertion (>= 2x over serial cold) only fires on runners with at least
4 CPUs — it is a parallelism claim, not a single-core one.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import BENCH_LIMIT, BENCH_TIMEOUT, _cases
from repro import Synthesizer
from repro.domains import clear_cached_domains, load_domain
from repro.domains.textediting import build_domain as build_textediting

#: Pool size for the process fan-out measurements.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))

#: Minimum CPU count before the process-scaling assertion applies.
MIN_CPUS_FOR_SCALING = 4


def _fresh_domain():
    """A private domain instance so each cold pass really is cold."""
    return build_textediting(fresh=True)


def _codelets(items):
    return [i.outcome.codelet if i.ok else i.status for i in items]


def _timed(fn):
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start


def _measure(cache_dir):
    queries = [c.query for c in _cases("textediting")]

    synth = Synthesizer(_fresh_domain())
    cold, cold_s = _timed(
        lambda: synth.synthesize_many(
            queries, timeout_seconds_each=BENCH_TIMEOUT
        )
    )
    warm, warm_s = _timed(
        lambda: synth.synthesize_many(
            queries, timeout_seconds_each=BENCH_TIMEOUT
        )
    )

    # Persist the cold pass's path/size/conflict layers for the
    # snapshot-warmed measurements below.
    snapshot_source = _fresh_domain()
    Synthesizer(snapshot_source).synthesize_many(
        queries, timeout_seconds_each=BENCH_TIMEOUT
    )
    snapshot_file = snapshot_source.save_cache(cache_dir)

    # Forked workers inherit whatever the parent has cached; drop the
    # shared registry instances so "process cold" is honest.
    clear_cached_domains()
    proc_cold, proc_cold_s = _timed(
        lambda: Synthesizer(load_domain("textediting")).synthesize_many(
            queries,
            timeout_seconds_each=BENCH_TIMEOUT,
            max_workers=BENCH_WORKERS,
        )
    )

    clear_cached_domains()
    proc_snap, proc_snap_s = _timed(
        lambda: Synthesizer(load_domain("textediting")).synthesize_many(
            queries,
            timeout_seconds_each=BENCH_TIMEOUT,
            max_workers=BENCH_WORKERS,
            cache_dir=cache_dir,
        )
    )

    preloaded_domain = _fresh_domain()
    assert preloaded_domain.load_cache(cache_dir) is True
    preloaded_synth = Synthesizer(preloaded_domain)
    preloaded, preloaded_s = _timed(
        lambda: preloaded_synth.synthesize_many(
            queries, timeout_seconds_each=BENCH_TIMEOUT
        )
    )
    first = next(i for i in preloaded if i.ok)
    first_query_hits = first.outcome.stats.path_cache_hits

    n = len(queries)
    outcome_hits = sum(
        i.outcome.stats.outcome_cache_hits for i in warm if i.ok
    )
    summary = {
        "domain": "textediting",
        "n_queries": n,
        "timeout_seconds": BENCH_TIMEOUT,
        "limit": BENCH_LIMIT,
        "workers": BENCH_WORKERS,
        "cpus": os.cpu_count(),
        "snapshot_file": str(snapshot_file),
        "snapshot_bytes": snapshot_file.stat().st_size,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "process_cold_seconds": round(proc_cold_s, 4),
        "process_snapshot_seconds": round(proc_snap_s, 4),
        "preloaded_serial_seconds": round(preloaded_s, 4),
        "cold_qps": round(n / cold_s, 2),
        "warm_qps": round(n / warm_s, 2),
        "process_cold_qps": round(n / proc_cold_s, 2),
        "process_snapshot_qps": round(n / proc_snap_s, 2),
        "preloaded_serial_qps": round(n / preloaded_s, 2),
        "warm_speedup": round(cold_s / warm_s, 2),
        "process_scaling": round(cold_s / proc_cold_s, 2),
        "process_snapshot_speedup": round(cold_s / proc_snap_s, 2),
        "preloaded_serial_speedup": round(cold_s / preloaded_s, 2),
        "preloaded_first_query_path_hits": first_query_hits,
        "warm_outcome_cache_hits": outcome_hits,
        "n_ok": sum(1 for i in cold if i.ok),
    }
    runs = {
        "cold": cold,
        "warm": warm,
        "process_cold": proc_cold,
        "process_snapshot": proc_snap,
        "preloaded_serial": preloaded,
    }
    return runs, summary


def test_throughput_batch(benchmark, tmp_path):
    runs, summary = benchmark.pedantic(
        lambda: _measure(tmp_path), rounds=1, iterations=1
    )
    print()
    print(json.dumps(summary, indent=2))

    # Caching and worker count must be invisible in the results...
    reference = _codelets(runs["cold"])
    for name, items in runs.items():
        assert _codelets(items) == reference, name
    # ...and visible in the clock: the warm pass answers from the outcome
    # cache.  3x is deliberately loose — measured steady-state speedups
    # are far higher (see docs/performance.md).
    assert summary["warm_speedup"] >= 3, summary
    assert summary["warm_outcome_cache_hits"] == summary["n_queries"]
    # The snapshot must actually seed the fresh domain's caches.
    assert summary["preloaded_first_query_path_hits"] > 0, summary
    # Process scaling is a parallelism claim; only assert it where there
    # is parallelism to be had.
    cpus = os.cpu_count() or 1
    if cpus >= MIN_CPUS_FOR_SCALING and BENCH_WORKERS >= 4:
        assert summary["process_scaling"] >= 2, summary
