"""Regenerate ``dggt_golden.jsonl``, the pinned DGGT outcome of every suite query.

    PYTHONPATH=src python tests/data/make_dggt_golden.py

The fixture was written before the legacy object engine was removed, and
both engines wrote it byte for byte; ``tests/test_interned_equivalence.py``
asserts that the current engine reproduces every record exactly.
Regenerating it only makes sense when a change to the synthesized
codelets or the DGGT counters is intended.

For each of the four suites (textediting, astmatcher, spreadsheet,
stringxform) and each of the eight ``(grammar_pruning, size_pruning,
orphan_relocation)`` combinations it records one outcome per query:

* ``["ok", codelet, size, stats]`` where ``stats`` holds the
  ``SynthesisStats`` counters without the cache hit/miss fields (those
  depend on what ran before on the shared domain, not on the query);
* ``["fail", error type, message]`` for a ``SynthesisError`` (a
  ``SynthesisTimeout`` records its type only: its message embeds the
  elapsed wall time).

Every query runs under a ``DEADLINE_S`` budget on one fresh domain per
suite, shared by all eight combinations.  Queries are keyed by their
index in the suite; the header line records each suite's size.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import _bundled_queries  # noqa: E402
from repro.core.dggt import DggtConfig, DggtEngine  # noqa: E402
from repro.domains import load_domain  # noqa: E402
from repro.errors import SynthesisError, SynthesisTimeout  # noqa: E402
from repro.synthesis.deadline import Deadline  # noqa: E402
from repro.synthesis.problem import build_problem  # noqa: E402
from repro.synthesis.result import SynthesisStats  # noqa: E402

OUT = Path(__file__).with_name("dggt_golden.jsonl")
SUITES = ("textediting", "astmatcher", "spreadsheet", "stringxform")
#: (grammar_pruning, size_pruning, orphan_relocation), all-on first.
COMBOS = list(itertools.product((True, False), repeat=3))
DEADLINE_S = 20.0
_CACHE_FIELDS = set(SynthesisStats.CACHE_FIELDS)


def config_of(combo) -> DggtConfig:
    grammar_pruning, size_pruning, orphan_relocation = combo
    return DggtConfig(
        grammar_pruning=grammar_pruning,
        size_pruning=size_pruning,
        orphan_relocation=orphan_relocation,
    )


def outcome(domain, query: str, engine: DggtEngine) -> list:
    """One query's record, as the fixture stores it."""
    deadline = Deadline(DEADLINE_S)
    try:
        out = engine.synthesize(build_problem(domain, query), deadline=deadline)
    except SynthesisTimeout as exc:
        return ["fail", type(exc).__name__]
    except SynthesisError as exc:
        return ["fail", type(exc).__name__, str(exc)]
    stats = {
        key: value
        for key, value in out.stats.as_dict().items()
        if key not in _CACHE_FIELDS
    }
    return ["ok", out.codelet, out.size, stats]


def main() -> None:
    """Writes a header line, then one ``[suite, combo index, query
    index, outcome]`` line per (suite, combination, query)."""
    suites = {name: _bundled_queries(name) for name in SUITES}
    lines: List[list] = []
    for name, queries in suites.items():
        domain = load_domain(name, fresh=True)
        for c, combo in enumerate(COMBOS):
            engine = DggtEngine(config_of(combo))
            for q, query in enumerate(queries):
                lines.append([name, c, q, outcome(domain, query, engine)])
        print(f"{name}: {len(queries)} queries", file=sys.stderr)
    header = {
        "combos": COMBOS,
        "deadline_s": DEADLINE_S,
        "suites": {name: len(queries) for name, queries in suites.items()},
    }
    with OUT.open("w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for line in lines:
            fh.write(json.dumps(line, separators=(",", ":"), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
