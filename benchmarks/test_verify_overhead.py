"""Verification overhead: example-guided synthesis vs. plain synthesis.

The execution-guided verification subsystem (docs/verification.md) adds
work to a request that carries I/O examples: alternative-candidate
enumeration, sandboxed candidate execution, and re-ranking.  This
benchmark pins that overhead so it cannot silently grow — near real-time
latency is the paper's headline claim, and the verify stage rides on the
same request deadline as synthesis proper.

Methodology: for each workload query the synthesizer is warmed once,
then ``ROUNDS`` alternating plain / verified calls are timed on the warm
path (the verify stage always runs cold work — candidate enumeration and
sandboxed execution are never cached).  The tracked metric is the
**overhead ratio** — total verified wall over total plain wall — which
compares the same host against itself and is therefore
machine-independent, like ``BENCH_dggt_core.json``.

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
SCHEMA = "verify-overhead/v1"

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

ROUNDS = 5
MAX_REGRESSION = 1.25
#: Sanity ceiling in every mode: verification must stay within an order
#: of magnitude of plain synthesis on the warm path.
MAX_OVERHEAD_RATIO = 12.0


def _measure_workload(name, domain_name, query, examples):
    from repro import Synthesizer, load_domain

    synth = Synthesizer(load_domain(domain_name), cache_outcomes=False)
    synth.synthesize(query)  # warm grammar/path caches
    plain_walls, verified_walls, verify_stage = [], [], []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        synth.synthesize(query)
        plain_walls.append(time.perf_counter() - started)

        started = time.perf_counter()
        out = synth.synthesize(query, examples=list(examples))
        verified_walls.append(time.perf_counter() - started)
        span = out.trace.spans[-1]
        assert span.stage == "verify", span.stage
        verify_stage.append(span.elapsed_seconds)
        assert out.verification is not None
        assert out.verification.status == "verified"
    return {
        "query": query,
        "domain": domain_name,
        "rounds": ROUNDS,
        "plain_wall_seconds": sum(plain_walls),
        "verified_wall_seconds": sum(verified_walls),
        "overhead_ratio": sum(verified_walls) / max(sum(plain_walls), 1e-9),
        "verify_stage_seconds": {
            "p50": percentile(verify_stage, 50),
            "p99": percentile(verify_stage, 99),
            "total": sum(verify_stage),
        },
    }


def _run_all():
    report = {}
    for name, domain_name, query, examples in WORKLOADS:
        report[name] = _measure_workload(name, domain_name, query, examples)
    plain = sum(w["plain_wall_seconds"] for w in report.values())
    verified = sum(w["verified_wall_seconds"] for w in report.values())
    aggregate = {
        "plain_wall_seconds": plain,
        "verified_wall_seconds": verified,
        "overhead_ratio": verified / max(plain, 1e-9),
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
