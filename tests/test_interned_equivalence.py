"""The DGGT engine reproduces its pinned outcome for every suite query.

``data/dggt_golden.jsonl`` (see ``data/make_dggt_golden.py``) holds, for
the four suites and all eight ``(grammar_pruning, size_pruning,
orphan_relocation)`` combinations, each query's codelet, size and
non-cache ``SynthesisStats`` counters, or its failure type and message.
Both the interned engine and the legacy object engine it replaced wrote
that file, byte for byte, so these tests hold the remaining engine to
the legacy engine's recorded outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import _bundled_queries
from repro.core.dggt import DggtEngine
from repro.domains import load_domain
from repro.errors import SynthesisTimeout
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import build_problem
from tests.data.make_dggt_golden import COMBOS, SUITES, config_of, outcome

GOLDEN = Path(__file__).parent / "data" / "dggt_golden.jsonl"


def _load():
    with GOLDEN.open() as fh:
        header = json.loads(fh.readline())
        records = {}
        for line in fh:
            suite, combo, index, result = json.loads(line)
            records.setdefault((suite, combo), []).append((index, result))
    return header, records


HEADER, RECORDS = _load()
_SHARED_DOMAINS = {}


def _shared_domain(suite):
    """One fresh domain per suite, shared by every combination — as the
    generator ran it."""
    if suite not in _SHARED_DOMAINS:
        _SHARED_DOMAINS[suite] = load_domain(suite, fresh=True)
    return _SHARED_DOMAINS[suite]


def _assert_reproduces(domain, suite, combo):
    queries = _bundled_queries(suite)
    engine = DggtEngine(config_of(COMBOS[combo]))
    mismatches = []
    for index, expected in RECORDS[(suite, combo)]:
        got = outcome(domain, queries[index], engine)
        if got != expected:
            mismatches.append((index, queries[index], expected, got))
    assert not mismatches, mismatches[:3]


def test_fixture_covers_every_suite_and_combination():
    assert HEADER["combos"] == [list(c) for c in COMBOS]
    assert set(HEADER["suites"]) == set(SUITES)
    for suite in SUITES:
        n = len(_bundled_queries(suite))
        assert HEADER["suites"][suite] == n
        for c in range(len(COMBOS)):
            assert [i for i, _r in RECORDS[(suite, c)]] == list(range(n))
    assert sum(len(v) for v in RECORDS.values()) == 3392


class TestFullSuiteEquivalence:
    @pytest.mark.parametrize("domain_name", SUITES)
    def test_byte_identical_over_full_suite(self, domain_name):
        """All optimizations on, on a domain of its own (cold caches)."""
        _assert_reproduces(load_domain(domain_name, fresh=True), domain_name, 0)


class TestAblationEquivalence:
    """Every pruning/relocation toggle combination, on one domain per
    suite shared across combinations."""

    @pytest.mark.parametrize("domain_name", SUITES)
    @pytest.mark.parametrize(
        "combo", range(len(COMBOS)), ids=lambda c: f"combo{c}"
    )
    def test_all_toggle_combos(self, domain_name, combo):
        _assert_reproduces(_shared_domain(domain_name), domain_name, combo)


class TestDeadlineEdgeCases:
    def test_zero_budget_same_failure(self):
        """A zero budget fails every query with a timeout, as the legacy
        engine did."""
        domain = _shared_domain("textediting")
        engine = DggtEngine()
        for query in _bundled_queries("textediting")[:5]:
            with pytest.raises(SynthesisTimeout):
                engine.synthesize(
                    build_problem(domain, query), deadline=Deadline(0.0)
                )

    def test_expired_deadline_raises_identically(self, textediting):
        problem = build_problem(textediting, "print every line")
        with pytest.raises(SynthesisTimeout):
            DggtEngine().synthesize(problem, deadline=Deadline(0.0))
