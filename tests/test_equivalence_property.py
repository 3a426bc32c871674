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
from repro.errors import SynthesisError
from repro.synthesis.pipeline import Synthesizer
from repro.synthesis.problem import build_problem

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
# Tracing is behaviour-preserving (staged-pipeline refactor guard)
# ---------------------------------------------------------------------------


def _suite(domain_name, limit=None):
    def build_domain(fresh):
        return load_domain(domain_name, fresh=fresh)

    queries = _bundled_queries(domain_name)
    return build_domain, queries[:limit] if limit else queries


def _run_suite(build_domain, queries, engine, collect_trace):
    """One full pass over a suite on a fresh domain; everything observable
    except wall time and the trace itself, per query."""
    synth = Synthesizer(build_domain(fresh=True), engine=engine)
    results = []
    for item in synth.synthesize_many(queries, collect_trace=collect_trace):
        if item.ok:
            results.append(
                ("ok", item.outcome.codelet, item.outcome.size,
                 item.outcome.stats.as_dict())
            )
        else:
            results.append(
                (item.status, type(item.error).__name__, str(item.error))
            )
    return results


class TestTracingEquivalence:
    """Tracing on vs. off: byte-identical codelets, identical counters.

    The staged refactor's core invariant — recording spans must never
    change what is synthesized or what the Table III counters report.
    """

    @pytest.mark.parametrize("domain_name", ["textediting", "astmatcher"])
    def test_full_suite_dggt(self, domain_name):
        build_domain, queries = _suite(domain_name)
        plain = _run_suite(build_domain, queries, "dggt", False)
        traced = _run_suite(build_domain, queries, "dggt", True)
        assert plain == traced

    @pytest.mark.parametrize(
        "domain_name,limit",
        [("textediting", 25), ("astmatcher", 25), ("spreadsheet", None),
         ("stringxform", None)],
        ids=["textediting", "astmatcher", "spreadsheet", "stringxform"],
    )
    def test_suite_slice_hisyn(self, domain_name, limit):
        """Also the paper's own oracle (Sec. VII-B.2): wherever HISyn
        finishes, DGGT synthesizes the same codelet."""
        build_domain, queries = _suite(domain_name, limit=limit)
        plain = _run_suite(build_domain, queries, "hisyn", False)
        traced = _run_suite(build_domain, queries, "hisyn", True)
        assert plain == traced
        dggt = _run_suite(build_domain, queries, "dggt", False)
        finished = 0
        for query, h, d in zip(queries, plain, dggt):
            if h[0] == "ok":
                finished += 1
                assert d[:2] == h[:2], query
        assert finished

    def test_traced_run_actually_traces(self):
        build_domain, queries = _suite("textediting", limit=5)
        synth = Synthesizer(build_domain(fresh=True))
        items = synth.synthesize_many(queries, collect_trace=True)
        assert all(
            item.trace is not None for item in items
        )
