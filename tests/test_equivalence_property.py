"""Property test: DGGT and HISyn agree on randomized toy queries.

This is the reproduction of the paper's central correctness claim
(Sec. VII-B.2): "as DGGT only accelerates the synthesis process in HISyn, it
should produce identical synthesis results in all the cases" (timeouts
aside).  Queries are assembled from the toy domain's vocabulary so the
exhaustive baseline stays fast enough to enumerate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.hisyn import HISynEngine
from repro.cli import _bundled_queries
from repro.core.dggt import DggtConfig, DggtEngine
from repro.domains import load_domain
from repro.errors import ReproError, SynthesisError
from repro.synthesis.pipeline import Synthesizer, make_engine
from repro.synthesis.problem import build_problem
from repro.synthesis.result import SynthesisStats
from repro.synthesis.stages import STAGE_NAMES
from tests.bare_pipeline import synthesize_bare

_VERBS = st.sampled_from(["insert", "delete"])
_OBJECTS = st.sampled_from(['a string', 'numbers', '":"', 'the string "#"'])
_TAILS = st.lists(
    st.sampled_from(
        [
            "into lines",
            "into words",
            "at the start",
            "at position 5",
            "containing numbers",
        ]
    ),
    unique=True,
    max_size=2,
)


def _outcome(domain, query, engine):
    try:
        out = engine.synthesize(build_problem(domain, query))
        return ("ok", out.codelet, out.size)
    except SynthesisError as exc:
        return ("fail", type(exc).__name__, None)


class TestEngineEquivalence:
    @given(_VERBS, _OBJECTS, _TAILS)
    @settings(max_examples=40, deadline=None)
    def test_same_codelet_or_same_failure(self, toy_domain, verb, obj, tails):
        query = " ".join([verb, obj] + tails)
        d = _outcome(toy_domain, query, DggtEngine())
        h = _outcome(toy_domain, query, HISynEngine())
        assert d[0] == h[0], query
        if d[0] == "ok":
            assert d[1] == h[1], query

    @given(_VERBS, _OBJECTS, _TAILS)
    @settings(max_examples=20, deadline=None)
    def test_ablated_dggt_still_optimal(self, toy_domain, verb, obj, tails):
        """Pruning is lossless: disabling it never changes the result size."""
        query = " ".join([verb, obj] + tails)
        full = _outcome(toy_domain, query, DggtEngine())
        bare = _outcome(
            toy_domain,
            query,
            DggtEngine(DggtConfig(grammar_pruning=False, size_pruning=False)),
        )
        assert full[0] == bare[0], query
        if full[0] == "ok":
            assert full[2] == bare[2], query


# ---------------------------------------------------------------------------
# Span recording is behaviour-preserving (staged-pipeline guard)
# ---------------------------------------------------------------------------


def _suite(domain_name, limit=None):
    queries = _bundled_queries(domain_name)
    return queries[:limit] if limit else queries


def _table3(stats):
    """The engine's counters, without the per-query cache deltas."""
    counters = stats.as_dict()
    for name in SynthesisStats.CACHE_FIELDS:
        del counters[name]
    return counters


def _run_suite(domain_name, queries, engine):
    """One :meth:`Synthesizer.synthesize_many` pass over a suite on a
    fresh domain; per query, everything observable except wall time,
    the trace and the cache deltas."""
    synth = Synthesizer(load_domain(domain_name, fresh=True), engine=engine)
    results = []
    for item in synth.synthesize_many(queries):
        if item.ok:
            results.append(("ok", item.outcome.codelet, item.outcome.size,
                            _table3(item.outcome.stats)))
        else:
            results.append(
                (item.status, type(item.error).__name__, str(item.error))
            )
    return results


def _run_bare(domain_name, queries, engine):
    """The same pass through the six stage bodies called directly."""
    domain = load_domain(domain_name, fresh=True)
    engine = make_engine(engine)
    results = []
    for query in queries:
        try:
            expression, size, stats = synthesize_bare(domain, engine, query)
        except ReproError as exc:
            results.append(("error", type(exc).__name__, str(exc)))
            continue
        results.append(("ok", expression.render(), size, _table3(stats)))
    return results


class TestTracingEquivalence:
    """Spans on every stage vs. the bare stage bodies: byte-identical
    codelets, identical counters.

    The staged pipeline's core invariant — recording spans must never
    change what is synthesized or what the Table III counters report.
    """

    @pytest.mark.parametrize("domain_name", ["textediting", "astmatcher"])
    def test_full_suite_dggt(self, domain_name):
        queries = _suite(domain_name)
        bare = _run_bare(domain_name, queries, "dggt")
        traced = _run_suite(domain_name, queries, "dggt")
        assert bare == traced

    @pytest.mark.parametrize(
        "domain_name,limit",
        [("textediting", 25), ("astmatcher", 25), ("spreadsheet", None),
         ("stringxform", None)],
        ids=["textediting", "astmatcher", "spreadsheet", "stringxform"],
    )
    def test_suite_slice_hisyn(self, domain_name, limit):
        """The paper's own oracle (Sec. VII-B.2): wherever HISyn
        finishes, DGGT synthesizes the same codelet."""
        queries = _suite(domain_name, limit=limit)
        hisyn = _run_suite(domain_name, queries, "hisyn")
        dggt = _run_suite(domain_name, queries, "dggt")
        finished = 0
        for query, h, d in zip(queries, hisyn, dggt):
            if h[0] == "ok":
                finished += 1
                assert d[:2] == h[:2], query
        assert finished

    def test_traced_run_actually_traces(self):
        queries = _suite("textediting", limit=5)
        synth = Synthesizer(load_domain("textediting", fresh=True))
        items = synth.synthesize_many(queries)
        assert all(
            [s.stage for s in item.trace.spans] == list(STAGE_NAMES)
            for item in items
        )
