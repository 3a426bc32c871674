"""Multi-worker serving scale-out: saturation throughput vs worker count.

The tentpole claim for ``repro serve --workers N`` is capacity: N worker
processes behind one port should complete ~N× the requests per second of
one GIL-bound worker.  This bench boots a real ``repro serve`` process at
1, 2, and 4 workers and drives each at 2× its nominal capacity with a
closed-loop load generator, recording the saturation QPS and the p50/p99
latency under that overload.

Real synthesis on the 1-core CI runner would make every configuration
CPU-bound and hide the scaling, so the service time is pinned with
``REPRO_SERVE_INJECT_DELAY_MS``: each request sleeps a fixed budget
inside dispatch (after admission, inside its scheduler slot).  Capacity
is then ``workers × max_inflight / delay`` by construction — sleeping
threads release the GIL, so what the curve measures is the serving
layer's ability to keep N × max_inflight slots busy, which is exactly
the property the pre-fork architecture adds.

Modes (``REPRO_SERVING_BENCH``):

* ``smoke`` (default) — 1 vs 4 workers, short windows; compares the
  measured 4-worker speedup against the committed ``BENCH_serving.json``
  baseline and fails on a >25% regression.  Ratios, not absolute QPS, so
  the check is machine-independent.
* ``full`` — the whole 1/2/4 curve, longer windows; rewrites the tracked
  ``BENCH_serving.json`` at the repo root and asserts the 4-worker
  speedup floor (≥2.5×).

Single-worker responses are asserted byte-identical to a direct
``Synthesizer.synthesize`` before any load is applied.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.common import percentile

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_serving.json"
SCHEMA = "server-scaleout/v1"

QUERY = "print every line"

#: Injected service time; large enough that per-request CPU (HTTP
#: parsing, admission, outcome-cache hit) is noise next to it.
DELAY_MS = 100

#: Per-worker concurrency and queue.  Small max_inflight keeps total
#: throughput low enough that the 1-core runner is never CPU-bound.
MAX_INFLIGHT = 2
QUEUE_DEPTH = 64

#: Closed-loop clients per configuration: 2× nominal capacity, so every
#: slot stays busy and the queue holds the other half (the "2× overload"
#: the p99 is recorded under).
OVERLOAD_FACTOR = 2

WARMUP_SECONDS = 1.5
FULL_WORKER_COUNTS = (1, 2, 4)
SMOKE_WORKER_COUNTS = (1, 4)
FULL_MEASURE_SECONDS = 6.0
SMOKE_MEASURE_SECONDS = 3.0

FULL_MIN_SPEEDUP_4W = 2.5
SMOKE_MAX_REGRESSION = 1.25
MAX_ERROR_RATE = 0.05


def _boot(workers, tmp_dir):
    """Start ``repro serve --http 0 --workers N`` with the injected
    delay; returns (proc, port) once the port file appears."""
    port_path = os.path.join(tmp_dir, f"serve-{workers}.port")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["REPRO_SERVE_INJECT_DELAY_MS"] = str(DELAY_MS)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0",
         "--workers", str(workers), "--port-file", port_path,
         "--domains", "textediting",
         "--max-inflight", str(MAX_INFLIGHT),
         "--queue-depth", str(QUEUE_DEPTH),
         "--timeout", "30"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 180
    port = None
    while time.monotonic() < deadline:
        try:
            with open(port_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            text = ""
        if text.strip():
            port = int(text)
            break
        if proc.poll() is not None:
            raise AssertionError(
                f"{workers}-worker server exited with code "
                f"{proc.returncode}: {proc.stderr.read()}"
            )
        time.sleep(0.05)
    if port is None:
        proc.kill()
        raise AssertionError("server never wrote its port file")
    return proc, port


def _shutdown(proc):
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=120)
    stderr = proc.stderr.read()
    assert code == 0, f"server exited {code} after drain: {stderr}"


def _drive(port, concurrency, measure_seconds):
    """Closed-loop load: ``concurrency`` clients requesting back to back.
    Fresh connection per request, so the kernel re-balances every request
    across workers.  Returns the steady-state sample summary."""
    from repro.client import HttpClient

    client = HttpClient(port=port, keep_alive=False)
    lock = threading.Lock()
    ok_samples = []
    error_count = [0]
    recording = threading.Event()
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            started = time.monotonic()
            try:
                payload = client.synthesize(QUERY, timeout=25.0)
                ok = payload.get("status") == "ok"
            except Exception:
                ok = False
            elapsed = time.monotonic() - started
            if recording.is_set():
                with lock:
                    if ok:
                        ok_samples.append(elapsed)
                    else:
                        error_count[0] += 1

    threads = [
        threading.Thread(target=loop, daemon=True)
        for _ in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    time.sleep(WARMUP_SECONDS)
    recording.set()
    window_started = time.monotonic()
    time.sleep(measure_seconds)
    recording.clear()
    window = time.monotonic() - window_started
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    with lock:
        n_ok = len(ok_samples)
        n_error = error_count[0]
        # No answers at all: latencies read 0 and the error-rate gate fails.
        latencies = ok_samples or [0.0]
        return {
            "concurrency": concurrency,
            "window_seconds": round(window, 3),
            "n_ok": n_ok,
            "n_error": n_error,
            "saturation_qps": round(n_ok / window, 2),
            "p50_ms": round(percentile(latencies, 50) * 1000, 1),
            "p99_ms": round(percentile(latencies, 99) * 1000, 1),
        }


def _measure_config(workers, measure_seconds, tmp_dir, direct_codelet):
    from repro.client import HttpClient

    proc, port = _boot(workers, tmp_dir)
    try:
        with HttpClient(port=port) as probe:
            if workers == 1:
                # Byte-identity gate: one worker behind the new CLI path
                # must answer exactly what the in-process pipeline does.
                for _ in range(3):
                    payload = probe.synthesize(QUERY)
                    assert payload["codelet"] == direct_codelet, payload
            else:
                # Wait for every worker's stats seat before loading.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if probe.stats().get("n_workers") == workers:
                        break
                    time.sleep(0.1)
                else:
                    raise AssertionError(
                        f"never saw {workers} workers: {probe.stats()}"
                    )
        concurrency = OVERLOAD_FACTOR * workers * MAX_INFLIGHT
        result = _drive(port, concurrency, measure_seconds)
    finally:
        _shutdown(proc)
    total = result["n_ok"] + result["n_error"]
    assert total > 0, result
    assert result["n_error"] / total <= MAX_ERROR_RATE, result
    result["workers"] = workers
    return result


def _run_curve(counts, measure_seconds, tmp_dir):
    from repro import Synthesizer, load_domain

    direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
    results = {}
    for workers in counts:
        results[str(workers)] = _measure_config(
            workers, measure_seconds, str(tmp_dir), direct.codelet
        )
    base_qps = results["1"]["saturation_qps"]
    for entry in results.values():
        entry["speedup_vs_1"] = round(
            entry["saturation_qps"] / max(base_qps, 1e-9), 3
        )
    return results


def test_server_scaleout(tmp_path):
    mode = os.environ.get("REPRO_SERVING_BENCH", "smoke")
    if mode == "full":
        results = _run_curve(
            FULL_WORKER_COUNTS, FULL_MEASURE_SECONDS, tmp_path
        )
        speedup_4w = results["4"]["speedup_vs_1"]
        payload = {
            "schema": SCHEMA,
            "params": {
                "delay_ms": DELAY_MS,
                "max_inflight": MAX_INFLIGHT,
                "queue_depth": QUEUE_DEPTH,
                "overload_factor": OVERLOAD_FACTOR,
                "measure_seconds": FULL_MEASURE_SECONDS,
            },
            "workers": results,
            "speedup_4w": speedup_4w,
        }
        BENCH_PATH.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print()
        print(json.dumps(payload, indent=2))
        assert speedup_4w >= FULL_MIN_SPEEDUP_4W, (
            f"4-worker saturation speedup {speedup_4w:.2f}x below the "
            f"{FULL_MIN_SPEEDUP_4W}x floor"
        )
        return

    baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    assert baseline.get("schema") == SCHEMA, (
        f"unrecognized baseline schema in {BENCH_PATH}; regenerate with "
        "REPRO_SERVING_BENCH=full"
    )
    baseline_speedup = baseline["speedup_4w"]
    results = _run_curve(SMOKE_WORKER_COUNTS, SMOKE_MEASURE_SECONDS, tmp_path)
    measured = results["4"]["speedup_vs_1"]
    summary = {
        "baseline_4w_speedup": baseline_speedup,
        "measured_4w_speedup": measured,
        "max_regression": SMOKE_MAX_REGRESSION,
        "workers": results,
    }
    print()
    print(json.dumps(summary, indent=2))
    assert measured >= baseline_speedup / SMOKE_MAX_REGRESSION, (
        f"4-worker scale-out regressed >25%: measured {measured:.2f}x vs "
        f"committed baseline {baseline_speedup:.2f}x"
    )
