"""Unit tests for the smaller supporting modules: errors, results,
enumeration internals, lexicon, path-voted graph, synthetic workloads."""

import pytest

from repro.baseline.enumeration import (
    iter_combinations,
    merge_combination,
    resolve_endpoints,
)
from repro.errors import (
    BNFSyntaxError,
    DomainError,
    GrammarError,
    ParseError,
    ReproError,
    SynthesisError,
    SynthesisTimeout,
    TokenizationError,
)
from repro.eval.synthetic import (
    make_synthetic_domain,
    make_synthetic_problem,
    worst_case_products,
)
from repro.grammar.path_voted import PathVotedGraph
from repro.grammar.paths import GrammarPath, find_paths_between_apis
from repro.nlp import lexicon
from repro.synthesis.problem import CandidatePath, EndpointCandidate
from repro.synthesis.result import SynthesisStats


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            GrammarError, ParseError, SynthesisError, TokenizationError,
            DomainError, BNFSyntaxError("x"),
        ):
            cls = exc if isinstance(exc, type) else type(exc)
            assert issubclass(cls, ReproError)
        assert issubclass(SynthesisTimeout, SynthesisError)

    def test_timeout_payload(self):
        err = SynthesisTimeout(20.0, 21.5)
        assert err.budget_seconds == 20.0
        assert "20" in str(err)

    def test_bnf_error_line(self):
        assert BNFSyntaxError("bad", line=7).line == 7
        assert "line 7" in str(BNFSyntaxError("bad", line=7))


class TestSynthesisStats:
    def test_as_dict_keys(self):
        keys = set(SynthesisStats().as_dict())
        assert {"dep_edges", "combinations", "pruned_grammar",
                "pruned_size", "merged", "orphans"} <= keys


class TestEnumeration:
    def _cp(self, pid, src="a", dst="b"):
        return CandidatePath(
            GrammarPath(pid, (f"api:{src}", f"api:{dst}")),
            EndpointCandidate(node_id=f"api:{src}", api_name=src),
            EndpointCandidate(node_id=f"api:{dst}", api_name=dst),
        )

    def test_iter_combinations_odometer_order(self):
        lists = [
            [self._cp("1.1"), self._cp("1.2")],
            [self._cp("2.1"), self._cp("2.2")],
        ]
        order = [
            tuple(cp.path_id for cp in combo)
            for combo in iter_combinations(lists)
        ]
        assert order == [
            ("1.1", "2.1"), ("1.1", "2.2"), ("1.2", "2.1"), ("1.2", "2.2")
        ]

    def test_iter_combinations_empty_list_short_circuits(self):
        assert list(iter_combinations([[self._cp("1.1")], []])) == []

    def test_resolve_endpoints_consistency(self):
        a = self._cp("1.1", "X", "Y")
        b = self._cp("2.1", "X", "Z")
        ok = resolve_endpoints([a, b], [(0, 1), (0, 2)])
        assert ok is not None and ok[0].api_name == "X"
        clash = self._cp("2.1", "W", "Z")
        assert resolve_endpoints([a, clash], [(0, 1), (0, 2)]) is None

    def test_merge_combination_binding_conflict(self):
        lit1 = CandidatePath(
            GrammarPath("1.1", ("api:A", "lit:v")),
            EndpointCandidate(node_id="api:A", api_name="A"),
            EndpointCandidate(node_id="lit:v", value="x"),
        )
        lit2 = CandidatePath(
            GrammarPath("2.1", ("api:B", "lit:v")),
            EndpointCandidate(node_id="api:B", api_name="B"),
            EndpointCandidate(node_id="lit:v", value="y"),
        )
        assert merge_combination([lit1, lit2]) is None
        same = merge_combination([lit1, lit1])
        assert same is not None and same.bindings["lit:v"] == "x"


class TestLexicon:
    def test_lookup_hits(self):
        assert lexicon.lookup("insert") == "VB"
        assert lexicon.lookup("line") == "NN"
        assert lexicon.lookup("fourteen") == "CD"

    def test_lookup_miss(self):
        assert lexicon.lookup("zyzzyva") is None


class TestPathVoted:
    def test_votes_and_describe(self, toy_graph):
        paths = find_paths_between_apis(toy_graph, "INSERT", "STRING")
        labeled = [p.with_id(f"2.{i+1}") for i, p in enumerate(paths)]
        voted = PathVotedGraph(toy_graph, labeled)
        assert voted.n_paths() == len(labeled)
        first_edge = labeled[0].edges()[0]
        assert "2.1" in voted.votes(*first_edge)
        assert voted.vote_count(*first_edge) >= 1
        assert "INSERT" in voted.describe()

    def test_conflict_pairs_on_exclusive_alternatives(self, toy_graph):
        p1 = find_paths_between_apis(toy_graph, "INSERT", "START")[0].with_id("a")
        p2 = find_paths_between_apis(toy_graph, "INSERT", "POSITION")[0].with_id("b")
        voted = PathVotedGraph(toy_graph, [p1, p2])
        assert frozenset(("a", "b")) in voted.conflict_path_pairs()


class TestSynthetic:
    def test_domain_shape(self):
        domain = make_synthetic_domain(2, 2, 3)
        assert len(domain.document) == 6  # 2 levels x 3 alternatives

    def test_problem_shape(self):
        domain = make_synthetic_domain(2, 3, 2)
        problem = make_synthetic_problem(domain, 2, 3, 2)
        assert len(problem.dep_graph) == 4  # root + 3 children
        assert all(len(v) == 2 for v in problem.candidates.values())

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_domain(0, 1, 1)

    def test_worst_case_products(self):
        prod, total = worst_case_products(3, 2, 2)
        # levels 1..2: e_1=2, e_2=4 -> 2^2 * 2^4 = 64; 2^2 + 2^4 = 20
        assert prod == 64
        assert total == 20
