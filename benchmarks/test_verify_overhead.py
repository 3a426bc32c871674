"""Verification overhead: example-guided synthesis vs. plain synthesis.

The execution-guided verification subsystem (docs/verification.md) adds
work to a request that carries I/O examples: alternative-candidate
enumeration, sandboxed candidate execution, and re-ranking.  This
benchmark pins that overhead so it cannot silently grow — near real-time
latency is the paper's headline claim, and the verify stage rides on the
same request deadline as synthesis proper.

Methodology: outcome caching is disabled and each workload query is
synthesized once to warm the grammar and path caches.  Each of
``ROUNDS`` rounds then times one plain and one verified call of every
workload back to back, the order alternating per round and workload, and
keeps each workload's fastest call per side (the verify stage always
runs cold work — candidate enumeration and sandboxed execution are never
cached).  The tracked metric is the **overhead ratio**: the sum of the
verified minima over the sum of the plain minima.  It compares the same
host against itself and is therefore machine-independent, like
``BENCH_dggt_core.json``; pairing the sides per call keeps host-speed
drift out of it, and the minima keep out the scheduler hiccups that made
a ratio of 5-round sums swing threefold between runs.

Modes (``REPRO_VERIFY_BENCH``):

* ``smoke`` (default) — runs the workloads and fails when the measured
  overhead ratio regresses >25% against the committed
  ``BENCH_verify.json`` baseline.
* ``full`` — same measurement, but rewrites the tracked
  ``BENCH_verify.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from perfbench.common import percentile

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_verify.json"
#: v2: sums of per-call minima over paired, order-alternating rounds
#: (v1 was the ratio of two 5-round wall sums).
SCHEMA = "verify-overhead/v2"

#: (name, domain, query, examples) — the CI verify-smoke scenarios plus a
#: consistent-rank-1 case, so both the rerank and the no-op paths are
#: represented in the aggregate.
WORKLOADS = (
    (
        "textediting_rerank",
        "textediting",
        'place "-" at the start of each line',
        (("aa\nbb", "-aa\n-bb"),),
    ),
    (
        "stringxform_rerank",
        "stringxform",
        'substitute "y" for "x"',
        (("axbx", "ayby"),),
    ),
    (
        "stringxform_rank1",
        "stringxform",
        'replace "x" with "y"',
        (("axbx", "ayby"),),
    ),
)

#: A round of the three workloads takes tens of milliseconds on a 2-vCPU
#: host, so the guard runs for a few seconds.
ROUNDS = 100
MAX_REGRESSION = 1.25
#: Sanity ceiling in every mode: verification must stay within an order
#: of magnitude of plain synthesis on the warm path.
MAX_OVERHEAD_RATIO = 12.0


def _synthesizers():
    from repro import Synthesizer, load_domain

    synths = []
    for _name, domain_name, query, _examples in WORKLOADS:
        synth = Synthesizer(load_domain(domain_name), cache_outcomes=False)
        synth.synthesize(query)  # warm grammar/path caches
        synths.append(synth)
    return synths


def _time_call(synth, query, examples, verify_stage):
    started = time.perf_counter()
    if examples is None:
        synth.synthesize(query)
        return time.perf_counter() - started
    out = synth.synthesize(query, examples=list(examples))
    seconds = time.perf_counter() - started
    span = out.trace.spans[-1]
    assert span.stage == "verify", span.stage
    verify_stage.append(span.elapsed_seconds)
    assert out.verification is not None
    assert out.verification.status == "verified"
    return seconds


def _run_all():
    synths = _synthesizers()
    n = len(WORKLOADS)
    plain = [float("inf")] * n
    verified = [float("inf")] * n
    verify_stage = [[] for _ in range(n)]
    for round_index in range(ROUNDS):
        for i, (_name, _domain, query, examples) in enumerate(WORKLOADS):
            order = (False, True) if (round_index + i) % 2 else (True, False)
            for with_examples in order:
                seconds = _time_call(
                    synths[i], query, examples if with_examples else None,
                    verify_stage[i],
                )
                best = verified if with_examples else plain
                best[i] = min(best[i], seconds)
    report = {}
    for i, (name, domain_name, query, _examples) in enumerate(WORKLOADS):
        report[name] = {
            "query": query,
            "domain": domain_name,
            "rounds": ROUNDS,
            "plain_min_seconds": plain[i],
            "verified_min_seconds": verified[i],
            "overhead_ratio": verified[i] / max(plain[i], 1e-9),
            "verify_stage_seconds": {
                "p50": percentile(verify_stage[i], 50),
                "p99": percentile(verify_stage[i], 99),
                "total": sum(verify_stage[i]),
            },
        }
    aggregate = {
        "plain_min_sum_seconds": sum(plain),
        "verified_min_sum_seconds": sum(verified),
        "overhead_ratio": sum(verified) / max(sum(plain), 1e-9),
    }
    return report, aggregate


def test_verify_overhead():
    mode = os.environ.get("REPRO_VERIFY_BENCH", "smoke")
    report, aggregate = _run_all()
    print()
    print(json.dumps({"aggregate": aggregate}, indent=2))
    assert aggregate["overhead_ratio"] <= MAX_OVERHEAD_RATIO, (
        f"verification overhead {aggregate['overhead_ratio']:.2f}x exceeds "
        f"the {MAX_OVERHEAD_RATIO}x sanity ceiling"
    )
    if mode == "full":
        payload = {
            "schema": SCHEMA,
            "workloads": report,
            "aggregate": aggregate,
        }
        BENCH_PATH.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        return
    baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    assert baseline.get("schema") == SCHEMA, (
        f"unrecognized baseline schema in {BENCH_PATH}; regenerate with "
        "REPRO_VERIFY_BENCH=full"
    )
    baseline_ratio = baseline["aggregate"]["overhead_ratio"]
    measured = aggregate["overhead_ratio"]
    print(json.dumps({
        "baseline_overhead_ratio": baseline_ratio,
        "measured_overhead_ratio": measured,
        "max_regression": MAX_REGRESSION,
    }, indent=2))
    assert measured <= baseline_ratio * MAX_REGRESSION, (
        f"verification overhead regressed >25%: measured {measured:.2f}x vs "
        f"committed baseline {baseline_ratio:.2f}x"
    )
