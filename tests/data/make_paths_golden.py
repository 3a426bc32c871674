"""Regenerate ``paths_golden.jsonl``, the pinned reversed all-path search.

    PYTHONPATH=src python tests/data/make_paths_golden.py

The fixture was written before the legacy string-keyed search was
removed, and both searches wrote it byte for byte;
``tests/test_interning.py`` (``TestSearchIdentity``) asserts that the
current search returns the same path list for every record.  It pins
Step 4's exact output — including where a visit cap cuts a search short
(ASTMatcher's 30,000-visit cap) — for any change to how edge -> path is
computed.

Each line is ``[domain, src, dst, limits, n_paths, digest]``: the
endpoint node ids, ``PathSearchLimits.cache_key()``, the number of paths
``find_paths`` returns and the SHA-256 of their interned encodings in
order.  Two groups of pairs are recorded:

* every endpoint pair the DGGT engine searches while synthesizing the
  four suites (textediting, astmatcher, spreadsheet, stringxform), under
  each domain's own limits;
* every ordered pair of distinct APIs of the Fig. 4 toy grammar
  (``tests/conftest.py``), under the default limits and four tight caps.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import product
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.cli import _bundled_queries  # noqa: E402
from repro.core.dggt import DggtEngine  # noqa: E402
from repro.domains import load_domain  # noqa: E402
from repro.errors import SynthesisError  # noqa: E402
from repro.grammar.bnf import parse_bnf  # noqa: E402
from repro.grammar.graph import GrammarGraph  # noqa: E402
from repro.grammar.interning import interner_for  # noqa: E402
from repro.grammar.paths import PathSearchLimits, find_paths  # noqa: E402
from repro.synthesis.problem import build_problem  # noqa: E402
from tests.conftest import TOY_APIS, TOY_BNF  # noqa: E402

OUT = Path(__file__).with_name("paths_golden.jsonl")
SUITES = ("textediting", "astmatcher", "spreadsheet", "stringxform")
#: Tight caps that make the toy searches stop mid-round.
TOY_LIMITS = (
    {},
    {"max_paths": 2},
    {"max_visits": 5},
    {"max_visits": 17, "max_paths": 3},
    {"max_path_len": 4},
)


def toy_graph() -> GrammarGraph:
    return GrammarGraph(parse_bnf(TOY_BNF), api_names=TOY_APIS)


def record(domain: str, graph: GrammarGraph, src: str, dst: str,
           limits: PathSearchLimits) -> list:
    path_ints = interner_for(graph).path_ints
    encs = [list(path_ints(p.nodes)) for p in find_paths(graph, src, dst, limits)]
    digest = hashlib.sha256(
        json.dumps(encs, separators=(",", ":")).encode()
    ).hexdigest()
    return [domain, src, dst, list(limits.cache_key()), len(encs), digest]


def suite_records(name: str) -> List[list]:
    """Synthesizes the suite on a fresh domain, then records every pair
    its path cache was asked for."""
    domain = load_domain(name, fresh=True)
    engine = DggtEngine()
    for query in _bundled_queries(name):
        try:
            engine.synthesize(build_problem(domain, query))
        except SynthesisError:
            pass
    node_ids = domain.path_cache.interner.node_ids
    keys = sorted(
        (node_ids[src], node_ids[dst], limits)
        for (src, dst, limits), _entry in domain.path_cache.paths.items()
    )
    return [
        record(name, domain.graph, src, dst, PathSearchLimits(*limits))
        for src, dst, limits in keys
    ]


def toy_records() -> List[list]:
    graph = toy_graph()
    apis = sorted(n.node_id for n in graph.api_nodes())
    return [
        record("toy", graph, src, dst, PathSearchLimits(**kwargs))
        for kwargs in TOY_LIMITS
        for src, dst in product(apis, apis)
        if src != dst
    ]


def main() -> None:
    lines: List[list] = []
    for name in SUITES:
        rows = suite_records(name)
        lines += rows
        print(f"{name}: {len(rows)} endpoint pairs", file=sys.stderr)
    lines += toy_records()
    with OUT.open("w") as fh:
        for line in lines:
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
