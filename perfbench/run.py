"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that yields the per-layer metrics (see
perfbench/README.md).  Every metric is printed by name with its unit and
sample count, then the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output matched its oracle; it is 2, with no result
line, when the source tree is missing or the run could not complete.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
import traceback

from common import (BENCH_DIR, SRC, environment_record, fmt_metric,
                    source_present, stop_prober)

WORKLOADS = ("cold-start", "serve-novel", "verify-examples")


def _spec() -> dict:
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as src:
        return json.load(src)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    # Only generated inputs reach the program: drop inherited knobs
    # (delays, cache sizes, cache and pack directories) before importing.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    # Byte-compile up front so no measured start-up pays for it.
    compileall.compile_dir(str(SRC), quiet=1)

    import selftest
    import workloads

    try:
        selftest.run_all()
    except AssertionError:
        traceback.print_exc()
        print("error: benchmark self-test failed", file=sys.stderr)
        return 2
    run = {
        "cold-start": workloads.run_cold_start,
        "serve-novel": workloads.run_serve_novel,
        "verify-examples": workloads.run_verify_examples,
    }[args.workload]
    try:
        report = run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        stop_prober()

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for metric in wanted:
        # Layers a workload does not exercise read 0 on that workload.
        if metric["name"] not in report.metrics:
            report.put(metric["name"], 0.0, metric["unit"], 0)
    env = environment_record()
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in report.notes:
        print(f"# {note}")
    for mismatch in report.mismatches:
        print(f"MISMATCH {mismatch}")
    for name, (value, unit, samples) in report.metrics.items():
        print(fmt_metric(name, value, unit, samples))
    correct = not report.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            m["name"]: {"value": report.metrics[m["name"]][0],
                        "unit": report.metrics[m["name"]][1]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
