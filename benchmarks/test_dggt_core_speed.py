"""DGGT core speed: cold and warm engine-core seconds of the one engine.

The DP core's perf trajectory benchmark across changes.  Every workload
runs in a *fresh subprocess* — domains are per-process singletons and
the interner memos warm monotonically, so an in-process rerun would be
measuring a hot cache.

Workloads:

* both full query suites (TextEditing, ASTMatcher), measuring the
  engine-core stages (``edge_to_path`` + ``merge``) from the pipeline
  trace, cold then warm;
* a synthetic merge-stress sweep (paper Sec. VI's complexity study:
  ``levels`` x ``fanout`` x ``alternatives`` grammars whose combination
  count grows as ``alternatives ** fanout`` per sibling group), where the
  merge loop dominates and the suites' NLU stages would only add noise.

Seconds are reported twice: as measured, and at the reference host
speed of the repo benchmark (``perfbench.common.probe`` /
``speed_factor``), from calibration loops timed in a separate process
right before each worker starts and right after it exits.  The
reference seconds are what the gate compares, so a slower or busier
host does not read as a regression.

Modes (``REPRO_CORE_BENCH``):

* ``smoke`` (default) — the pinned smoke subset only, ``SMOKE_RUNS``
  times; each workload counts with its fastest run.  Fails when the
  reference core seconds exceed the committed ``BENCH_dggt_core.json``
  baseline by more than 25 %, or when any DGGT counter differs from the
  baseline's (a counter drift means the engine did different work, so
  the seconds would compare different things).
* ``full`` — every workload once, then ``SMOKE_BASELINE_RUNS`` smoke
  measurements whose median becomes the smoke baseline; rewrites the
  tracked ``BENCH_dggt_core.json`` at the repo root.

Run directly (``python benchmarks/test_dggt_core_speed.py '<spec-json>'``)
this file is its own subprocess worker.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import percentile, probe, speed_factor, stop_prober

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_dggt_core.json"
SCHEMA = "dggt-core-speed/v2"

#: Stages attributable to the DGGT engine core; parse/prune/word-to-API
#: are shared NLU front-end work.
CORE_STAGES = ("edge_to_path", "merge")

COUNTER_FIELDS = (
    "n_combinations",
    "pruned_by_grammar",
    "pruned_by_size",
    "n_merged",
    "n_valid_cgts",
)

#: The full benchmark: both suites plus the merge-stress sweep.
FULL_WORKLOADS = {
    "textediting": {"kind": "suite", "domain": "textediting"},
    "astmatcher": {"kind": "suite", "domain": "astmatcher"},
    "merge_stress_3x3x4": {"kind": "synthetic", "levels": 3, "fanout": 3, "alternatives": 4},
    "merge_stress_3x4x4": {"kind": "synthetic", "levels": 3, "fanout": 4, "alternatives": 4},
    "merge_stress_3x4x5": {"kind": "synthetic", "levels": 3, "fanout": 4, "alternatives": 5},
}

#: Pinned CI smoke subset: a search-heavy suite slice plus the smallest
#: merge-stress point — seconds, not minutes.
SMOKE_WORKLOADS = {
    "astmatcher_head15": {"kind": "suite", "domain": "astmatcher", "limit": 15},
    "merge_stress_3x3x4": {"kind": "synthetic", "levels": 3, "fanout": 3, "alternatives": 4},
}

WARM_ROUNDS = 3
SMOKE_MAX_REGRESSION = 1.25
#: Fresh-process runs per smoke workload.  On a shared 2-vCPU host,
#: fifteen single cold runs of the smoke subset read from -19 % to +19 %
#: of their median even at reference speed; five fastest-of-three
#: measurements, from -7 % to +13 %.
SMOKE_RUNS = 3
#: Smoke measurements behind the committed baseline (their median), so
#: that a baseline taken at a fast moment does not make the gate fail
#: on ordinary runs.
SMOKE_BASELINE_RUNS = 5
#: Calibration probes taken right before and right after each worker.
#: One probe (the fastest of three loops, as the repo benchmark takes
#: it) varies by ~20 % from probe to probe even on an idle 2-vCPU host;
#: the speed factor averages all of them.
CALIBRATION_PROBES = 5


# ----------------------------------------------------------------------
# Subprocess worker: one workload measurement per process.
# ----------------------------------------------------------------------

def _per_query_summary(values):
    return {
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "total": sum(values),
    }


def _sum_counters(stats_list):
    out = {field: 0 for field in COUNTER_FIELDS}
    for stats in stats_list:
        if stats is None:
            continue
        for field in COUNTER_FIELDS:
            out[field] += getattr(stats, field)
    return out


def _worker_suite(spec):
    from repro.domains.astmatcher import build_domain as build_astmatcher
    from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES
    from repro.domains.textediting import build_domain as build_textediting
    from repro.domains.textediting.queries import TEXTEDITING_QUERIES
    from repro.eval.harness import run_dataset

    build, cases = {
        "textediting": (build_textediting, TEXTEDITING_QUERIES),
        "astmatcher": (build_astmatcher, ASTMATCHER_QUERIES),
    }[spec["domain"]]
    limit = spec.get("limit")
    if limit:
        cases = cases[:limit]
    domain = build()

    def sweep():
        started = time.perf_counter()
        results = run_dataset(
            domain, cases, engine="dggt",
            timeout_seconds=120.0, collect_trace=True,
        )
        wall = time.perf_counter() - started
        per_query = []
        stage_totals = {stage: 0.0 for stage in CORE_STAGES}
        for result in results:
            stage_seconds = result.stage_seconds or {}
            per_query.append(
                sum(stage_seconds.get(stage, 0.0) for stage in CORE_STAGES)
            )
            for stage in CORE_STAGES:
                stage_totals[stage] += stage_seconds.get(stage, 0.0)
        return results, wall, per_query, stage_totals

    cold_results, cold_wall, cold_per_query, cold_stages = sweep()
    warm_walls = []
    warm_per_query = []
    for _ in range(WARM_ROUNDS):
        _results, wall, per_query, _stages = sweep()
        warm_walls.append(wall)
        warm_per_query = per_query
    return {
        "n_queries": len(cold_results),
        "core_cold_seconds": sum(cold_per_query),
        "stage_seconds": cold_stages,
        "per_query_core_cold": _per_query_summary(cold_per_query),
        "per_query_core_warm": _per_query_summary(warm_per_query),
        "wall_cold_seconds": cold_wall,
        "wall_warm_seconds": min(warm_walls),
        "counters": _sum_counters(r.stats for r in cold_results),
    }


def _worker_synthetic(spec):
    from repro.core.dggt import DggtEngine
    from repro.eval.synthetic import make_synthetic_domain, make_synthetic_problem

    shape = (spec["levels"], spec["fanout"], spec["alternatives"])
    domain = make_synthetic_domain(*shape)
    problem = make_synthetic_problem(domain, *shape)
    started = time.perf_counter()
    out = DggtEngine().synthesize(problem)
    cold = time.perf_counter() - started
    return {
        "n_queries": 1,
        "params": {"levels": shape[0], "fanout": shape[1], "alternatives": shape[2]},
        "core_cold_seconds": cold,
        "per_query_core_cold": _per_query_summary([cold]),
        "wall_cold_seconds": cold,
        "size": out.size,
        "counters": _sum_counters([out.stats]),
    }


def _worker_main(raw_spec):
    spec = json.loads(raw_spec)
    runner = _worker_suite if spec["kind"] == "suite" else _worker_synthetic
    print(json.dumps(runner(spec)))


# ----------------------------------------------------------------------
# Orchestration (the pytest side).
# ----------------------------------------------------------------------

def _measure(name, spec):
    """One fresh-process run, with the core seconds also expressed at
    the reference host speed (probed while no worker runs)."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    before = [probe() for _ in range(CALIBRATION_PROBES)]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=1800,
    )
    after = [probe() for _ in range(CALIBRATION_PROBES)]
    assert proc.returncode == 0, (
        f"{name} worker failed:\n{proc.stdout}\n{proc.stderr}"
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    factor = speed_factor(*before, *after)
    result["speed_factor"] = factor
    result["core_cold_ref_seconds"] = result["core_cold_seconds"] * factor
    return result


def _run_workloads(workloads):
    return {name: dict(spec, **_measure(name, spec))
            for name, spec in workloads.items()}


def _smoke():
    """The smoke subset, ``SMOKE_RUNS`` times: reference core seconds
    summed over workloads, each at its fastest run, plus the counters
    (which every run must agree on)."""
    runs = [_run_workloads(SMOKE_WORKLOADS) for _ in range(SMOKE_RUNS)]
    counters = [{name: w["counters"] for name, w in run.items()} for run in runs]
    assert all(c == counters[0] for c in counters), counters
    return {
        "core_cold_ref_seconds": sum(
            min(run[name]["core_cold_ref_seconds"] for run in runs)
            for name in SMOKE_WORKLOADS
        ),
        "run_ref_seconds": [
            sum(w["core_cold_ref_seconds"] for w in run.values())
            for run in runs
        ],
        "counters": counters[0],
    }


def test_dggt_core_speed():
    try:
        _check_or_record(os.environ.get("REPRO_CORE_BENCH", "smoke"))
    finally:
        stop_prober()


def _check_or_record(mode):
    if mode == "full":
        report = _run_workloads(FULL_WORKLOADS)
        aggregate = {
            key: sum(w[key] for w in report.values())
            for key in ("core_cold_seconds", "core_cold_ref_seconds")
        }
        aggregate["wall_warm_seconds"] = sum(
            w["wall_warm_seconds"] for w in report.values()
            if "wall_warm_seconds" in w
        )
        smokes = [_smoke() for _ in range(SMOKE_BASELINE_RUNS)]
        assert all(m["counters"] == smokes[0]["counters"] for m in smokes)
        measurements = [m["core_cold_ref_seconds"] for m in smokes]
        smoke_baseline = {
            "core_cold_ref_seconds": statistics.median(measurements),
            "measurements": measurements,
            "counters": smokes[0]["counters"],
        }
        payload = {
            "schema": SCHEMA,
            "core_stages": list(CORE_STAGES),
            "workloads": report,
            "aggregate": aggregate,
            "smoke_baseline": smoke_baseline,
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print()
        print(json.dumps({"aggregate": aggregate, "smoke_baseline": smoke_baseline},
                         indent=2))
        return

    baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    assert baseline.get("schema") == SCHEMA, (
        f"unrecognized baseline schema in {BENCH_PATH}; regenerate with "
        "REPRO_CORE_BENCH=full"
    )
    committed = baseline["smoke_baseline"]
    measured = _smoke()
    summary = {
        "baseline_smoke_ref_seconds": committed["core_cold_ref_seconds"],
        "measured_smoke_ref_seconds": measured["core_cold_ref_seconds"],
        "measured_run_ref_seconds": measured["run_ref_seconds"],
        "max_regression": SMOKE_MAX_REGRESSION,
    }
    print()
    print(json.dumps(summary, indent=2))
    assert measured["counters"] == committed["counters"], (
        "DGGT counters differ from the committed baseline: "
        f"{measured['counters']} vs {committed['counters']}"
    )
    limit = committed["core_cold_ref_seconds"] * SMOKE_MAX_REGRESSION
    assert measured["core_cold_ref_seconds"] <= limit, (
        f"cold core regressed >25%: {measured['core_cold_ref_seconds']:.3f} s "
        f"vs committed baseline {committed['core_cold_ref_seconds']:.3f} s "
        "(reference host speed)"
    )


if __name__ == "__main__":
    _worker_main(sys.argv[1])
