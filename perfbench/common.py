"""Shared plumbing for the benchmark: paths, hermetic child environments,
host-speed calibration, order statistics, span recording and process
bookkeeping.

Everything here is stdlib-only and never imports ``repro``, so the
benchmark can report a missing source tree before touching the package.
``python3 perfbench/common.py --calibrate`` is the calibration process
that :func:`probe` starts: it times one calibration loop per line read
from stdin and writes the seconds back.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Per-invocation working directories and span files; ignored by git.
WORK_ROOT = ROOT / ".perfbench"

#: Per-query synthesis budget of the closed-loop workloads (the paper's).
QUERY_BUDGET_S = 20.0


#: Host-speed calibration: a fixed piece of pure-Python work timed
#: between pieces of the measured work.  Shared hosts change speed by
#: 20-40 % within minutes (frequency scaling, contention on shared cores
#: and caches), which moves every CPU-bound time with them; scaling such
#: a time by ``CALIBRATION_NOMINAL_S / measured loop time`` expresses it
#: at one reference speed.  The loop does what the pipeline does most — dict
#: and tuple lookups and string hashing over a few megabytes — because
#: on the host the benchmark was tuned on (2 vCPUs, x86-64) it tracked
#: the pipeline's speed better than an arithmetic loop did.  The nominal
#: value only fixes the scale: the median of a three-loop probe on that
#: host.
CALIBRATION_NOMINAL_S = 0.007
_POOL_SIZE = 20_000
_LOOKUPS = 15_000


@functools.lru_cache(maxsize=None)
def _calibration_data() -> tuple:
    """The loop's read-only input, built once per process (~3 MB)."""
    rng = random.Random(1)
    pool = tuple((i, str(i)) for i in range(_POOL_SIZE))
    return pool, tuple(rng.randrange(_POOL_SIZE) for _ in range(_LOOKUPS))


def calibrate() -> float:
    """Seconds one calibration loop takes now."""
    pool, order = _calibration_data()
    started = time.perf_counter()
    table: Dict[str, int] = {}
    for index in order:
        number, text = pool[index]
        table[text] = table.get(text, 0) + number
    sorted(table)
    return time.perf_counter() - started


_prober: Optional[subprocess.Popen] = None


def probe(loops: int = 3) -> float:
    """Seconds one calibration loop takes now: the fastest of ``loops``
    back-to-back loops, timed in a separate process (started on first
    use).

    The first loop after the process has waited runs from cold caches,
    like a request that reaches an idle server; the fastest of three
    runs warm, like a query in a busy closed loop.  The open loop probes
    with one loop, everything else with three.

    Callers probe only while the measured program is idle: between
    queries of a paused worker, before a spawn and after the child is
    ready, or in an idle gap of the open loop.  Neither the loop nor
    its timing shares a process or a time slot with the program, so a
    cost the program causes itself (a thread left spinning, a helper
    process, a polluted cache) does not slow the loop with it and stays
    in the scaled times instead of cancelling out."""
    global _prober
    if _prober is None:
        _prober = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--calibrate"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=scrub_environ(),
        )
    _prober.stdin.write(f"{loops}\n")
    _prober.stdin.flush()
    line = _prober.stdout.readline()
    if not line:
        raise RuntimeError("the calibration process exited")
    return float(line)


def stop_prober() -> None:
    """Stop the calibration process, if one was started."""
    global _prober
    if _prober is not None:
        _prober.stdin.close()
        stop_process(_prober)
        _prober = None


def _serve_calibration() -> None:
    _calibration_data()
    for line in sys.stdin:
        print(repr(min(calibrate() for _ in range(int(line)))), flush=True)


def speed_factor(*loop_seconds: float) -> float:
    """Reference seconds per measured second, from loop timings taken
    around the work (above 1 when the host runs faster than nominal)."""
    return CALIBRATION_NOMINAL_S / (sum(loop_seconds) / len(loop_seconds))


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def scrub_environ() -> Dict[str, str]:
    """A copy of this process's environment without any ``REPRO_*``
    variable, with ``src`` first on ``PYTHONPATH`` and a fixed hash seed
    so set iteration order is the same on every run."""
    clean = {k: v for k, v in os.environ.items()
             if not k.startswith("REPRO_")}
    rest = clean.get("PYTHONPATH")
    clean["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    clean["PYTHONHASHSEED"] = "0"
    return clean


def make_workdir(label: str) -> Path:
    """A fresh, empty directory for one invocation (snapshots, inputs,
    port files).  The caller removes it with :func:`remove_workdir`."""
    path = WORK_ROOT / f"{label}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def environment_record() -> Dict[str, str]:
    """Commit, interpreter and CPU count the run was measured on.  The
    benchmark may run from an exported tree without git metadata; the
    commit then falls back to a digest of the source files."""
    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if done.returncode == 0 and done.stdout.strip():
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if commit == "unknown":
        import hashlib

        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": str(os.cpu_count() or 1),
    }


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_pct(n: int) -> float:
    """The highest of p99, p95 and p90 that leaves ten of ``n`` samples
    beyond it."""
    for pct in (99.0, 95.0, 90.0):
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    raise RuntimeError(f"{n} samples leave ten beyond no tail percentile")


def require_tail(n: int, pct: float) -> None:
    """Fail unless ``n`` samples leave at least ten beyond ``pct``."""
    beyond = n - math.ceil(pct / 100.0 * n)
    if beyond < 10:
        raise RuntimeError(
            f"p{pct:g} needs ten samples beyond it; {n} samples leave "
            f"{beyond}"
        )


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent, rid)`` with ``parent`` the
    index of the enclosing span (-1 for a root) and ``rid`` the request
    id shared by every span of one request.  Spans nest on one thread,
    so a span's self time is its duration minus its children's.
    ``counters`` accumulates counts measured at the same boundaries.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self.rid = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.rid]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, rid in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid,
                }) + "\n")


def read_spans(path: Path) -> List[list]:
    with open(path, encoding="utf-8") as src:
        return [
            [d["name"], d["start"], d["end"], d["parent"], d["rid"]]
            for d in map(json.loads, src)
        ]


def self_times(spans: Sequence[list]) -> List[float]:
    """Per-span self time: duration minus the children's durations."""
    own = [end - start for _name, start, end, _parent, _rid in spans]
    for name, start, end, parent, _rid in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_seconds(spans: Sequence[list]) -> Dict[str, List[float]]:
    """Span name -> the self times of every span of that name."""
    out: Dict[str, List[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        out.setdefault(span[0], []).append(own)
    return out


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_process(proc: subprocess.Popen) -> None:
    """SIGTERM, wait up to 15 s, then SIGKILL: the process has ended on
    return."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def fmt_metric(name: str, value: float, unit: str, samples: int) -> str:
    return f"{name:<34} {value:>14.6f} {unit:<6} (n={samples})"


if __name__ == "__main__" and sys.argv[1:] == ["--calibrate"]:
    _serve_calibration()
