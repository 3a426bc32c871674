"""Closed-loop worker: one fresh interpreter per cold-start pass or
verify-examples run.

Usage (spawned by the workloads, never by hand)::

    python3 perfbench/worker.py WORKLOAD MODE INPUTS_JSON [SPANS_OUT]

The worker imports the package and builds the workload's domains, then
prints ``READY {...}`` (the parent's set-up clock stops there).  With
MODE ``setup`` it exits (on serve-novel, after loading the snapshots in
the directory given as the third argument); otherwise it reads the
inputs the parent generated and prints ``RESULT {...}`` with per-query
latencies, speed factors (see ``common.probe``) and codelets.

Whenever it needs a host-speed probe, the worker prints ``PROBE`` and
blocks until the parent answers with one calibration loop time, which
the parent measures in a separate process while this one waits.  MODE
``plain`` calls ``Synthesizer.synthesize``: one cold pass on cold-start,
an untimed warm pass and then passes until the input's ``seconds`` are
spent on verify-examples.  MODE ``traced`` runs the inputs through the
traced replica (:mod:`traced`) and writes the spans to SPANS_OUT; on
verify-examples it first runs the warm pass and one untraced pass, so
both see the same warm caches.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import Tracer, speed_factor

DOMAINS = {
    "cold-start": ("textediting", "astmatcher", "spreadsheet", "stringxform"),
    "verify-examples": ("textediting", "stringxform"),
    "serve-novel": ("textediting", "astmatcher", "spreadsheet", "stringxform"),
}

#: How often a pass pauses for a host-speed probe (seconds).
PROBE_EVERY_S = 0.5


def _vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _probe() -> float:
    """Pause while the parent times the calibration loop; its seconds."""
    print("PROBE", flush=True)
    return float(sys.stdin.readline())


def _run_pass(answer, items, calibrated: bool = True) -> dict:
    """One closed-loop pass: ``answer(index, item)`` per item, timed.

    With ``calibrated`` the pass pauses for a probe before the first
    query and then whenever ``PROBE_EVERY_S`` has passed; each query
    gets the speed factor of the probes on either side of it."""
    from repro.errors import ReproError

    latencies, codelets, factors = [], [], []
    loop = _probe() if calibrated else 0.0
    probed_at = time.perf_counter()
    for index, item in enumerate(items):
        t = time.perf_counter()
        try:
            codelet = answer(index, item)
        except ReproError:
            codelet = None
        latencies.append(time.perf_counter() - t)
        codelets.append(codelet)
        if calibrated and (time.perf_counter() - probed_at >= PROBE_EVERY_S
                           or index == len(items) - 1):
            again = _probe()
            factors.extend([speed_factor(loop, again)]
                           * (len(latencies) - len(factors)))
            loop, probed_at = again, time.perf_counter()
    return {"latencies": latencies, "codelets": codelets, "factors": factors}


def main(argv) -> int:
    workload, mode, inputs_path = argv[:3]
    spans_out = argv[3] if len(argv) > 3 else None
    started = time.perf_counter()
    from repro import Synthesizer
    from repro.domains import load_domain

    import_s = time.perf_counter() - started
    build_s, synths = {}, {}
    for name in DOMAINS[workload]:
        t = time.perf_counter()
        synths[name] = Synthesizer(load_domain(name))
        build_s[name] = time.perf_counter() - t
    ready = {"import_s": import_s, "build_s": build_s}
    if workload == "serve-novel":
        # Set-up probe of the serving layers: the third argument is the
        # snapshot directory that ``repro serve`` preloads.
        ready["load_s"] = {}
        for name, synth in synths.items():
            t = time.perf_counter()
            synth.domain.load_cache(inputs_path)
            ready["load_s"][name] = time.perf_counter() - t
    print("READY " + json.dumps(ready), flush=True)
    _probe()  # the end of set-up, timed while this process waits
    if mode == "setup":
        return 0

    with open(inputs_path, encoding="utf-8") as src:
        spec = json.load(src)
    items, budget = spec["items"], spec["budget"]
    executors: dict = {}
    result: dict = {"passes": []}
    if workload == "verify-examples":
        from repro.verify.examples import normalize_examples
        from repro.verify.executors import get_executor

        for item in items:
            item["examples"] = normalize_examples(
                [tuple(pair) for pair in item["examples"]]
            )
        executors = {name: get_executor(name) for name in synths}

    def plain(_index, item):
        return synths[item["domain"]].synthesize(
            item["query"], budget, examples=item.get("examples")
        ).codelet

    if workload == "verify-examples":
        # Untimed warm pass: fills the grammar caches the timed passes
        # read, so they measure the warm request path.
        _run_pass(plain, items, calibrated=False)

    # A cold pass can run only once per process, so on cold-start the
    # parent spawns the untraced (plain) and traced passes separately.
    run_plain = mode == "plain" or workload == "verify-examples"
    deadline = time.perf_counter() + spec["seconds"]
    while run_plain:
        result["passes"].append(_run_pass(plain, items))
        if mode == "traced" or workload == "cold-start" \
                or time.perf_counter() >= deadline:
            break
    if mode == "traced":
        result["traced"] = _traced(synths, items, budget, executors,
                                   warm=run_plain, spans_out=spans_out)
    result["vmhwm_mb"] = _vmhwm_mb()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _traced(synths, items, budget, executors, warm: bool,
            spans_out: str) -> dict:
    """The inputs through the traced replica.  ``warm``: a pass ran
    before, so the lemmas it looked up are not new."""
    import traced

    tr = Tracer()
    domains = [synth.domain for synth in synths.values()]
    seen = {name: set() for name in synths}
    for item in items if warm else ():
        seen[item["domain"]] |= traced.query_lemmas(
            synths[item["domain"]], item["query"]
        )

    def answer(index, item):
        tr.rid = index
        with tr.span("request"):
            return traced.synthesize(
                tr, synths[item["domain"]], item["query"], budget,
                seen[item["domain"]], item.get("examples"),
                executors.get(item["domain"]),
            )

    before = traced.cache_counters(domains)
    out = _run_pass(answer, items)
    for key, value in traced.cache_counters(domains).items():
        tr.count(key, value - before[key])
    tr.write(Path(spans_out))
    out["counters"] = tr.counters
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
