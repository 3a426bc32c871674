"""Unit tests for grammar paths and the reversed all-path search (Step-4)."""

import pytest

from repro.grammar.bnf import parse_bnf
from repro.grammar.graph import GrammarGraph, api_id, literal_id
from repro.grammar.paths import (
    GrammarPath,
    PathCatalog,
    PathSearchLimits,
    find_paths,
    find_paths_between_apis,
    find_paths_from_start,
)


class TestGrammarPath:
    def test_endpoints(self):
        p = GrammarPath("1.1", ("a", "b", "c"))
        assert p.src == "a" and p.dst == "c"
        assert p.edges() == [("a", "b"), ("b", "c")]
        assert len(p) == 3

    def test_with_id(self):
        p = GrammarPath("?", ("a",)).with_id("3.2")
        assert p.path_id == "3.2"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GrammarPath("x", ())

    def test_size_counts_apis_excluding_sink(self, toy_graph):
        paths = find_paths_between_apis(toy_graph, "INSERT", "LINESCOPE")
        assert paths, "expected at least one INSERT->LINESCOPE path"
        p = paths[0]
        # INSERT -> ins_iter -> iter_expr -> ITERATIONSCOPE -> iter_scope
        # -> LINESCOPE: APIs excluding sink are INSERT + ITERATIONSCOPE.
        assert p.size(toy_graph) == 2

    def test_size_of_string_to_literal_path(self, toy_graph):
        paths = find_paths(
            toy_graph, api_id("STRING"), literal_id("str_val")
        )
        assert len(paths) == 1
        # The paper's worked example: path [STRING -> str_val] has one API.
        assert paths[0].size(toy_graph) == 1


class TestFindPaths:
    def test_no_path_when_not_descendant(self, toy_graph):
        assert find_paths_between_apis(toy_graph, "LINESCOPE", "INSERT") == []

    def test_paths_from_start(self, toy_graph):
        paths = find_paths_from_start(toy_graph, "INSERT")
        assert len(paths) == 1
        assert paths[0].src == toy_graph.start_id

    def test_multiple_alternative_routes(self, toy_graph):
        # NUMBERTOKEN sits under both CONTAINS (occ_arg) and del_target.
        from_insert = find_paths_between_apis(toy_graph, "INSERT", "NUMBERTOKEN")
        from_delete = find_paths_between_apis(toy_graph, "DELETE", "NUMBERTOKEN")
        assert len(from_insert) == 1  # only via CONTAINS
        assert len(from_delete) == 2  # direct target or via iteration cond

    def test_deterministic(self, toy_graph):
        a = find_paths_between_apis(toy_graph, "DELETE", "NUMBERTOKEN")
        b = find_paths_between_apis(toy_graph, "DELETE", "NUMBERTOKEN")
        assert [p.nodes for p in a] == [p.nodes for p in b]

    def test_shortest_first_ordering(self, toy_graph):
        paths = find_paths_between_apis(toy_graph, "DELETE", "NUMBERTOKEN")
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_max_paths_cap(self, toy_graph):
        limits = PathSearchLimits(max_paths=1)
        paths = find_paths_between_apis(toy_graph, "DELETE", "NUMBERTOKEN", limits)
        assert len(paths) == 1

    def test_max_len_excludes_long_paths(self, toy_graph):
        limits = PathSearchLimits(max_path_len=3)
        paths = find_paths_between_apis(toy_graph, "INSERT", "LINESCOPE", limits)
        assert paths == []

    def test_unknown_nodes_empty(self, toy_graph):
        assert find_paths(toy_graph, "api:NOPE", "api:INSERT") == []

    def test_identity_path(self, toy_graph):
        paths = find_paths(toy_graph, api_id("INSERT"), api_id("INSERT"))
        assert len(paths) == 1
        assert paths[0].nodes == (api_id("INSERT"),)


class TestRecursiveGrammar:
    @pytest.fixture(scope="class")
    def cyclic_graph(self):
        g = parse_bnf(
            """
            m ::= n_a | n_b
            n_a ::= A a_trait
            a_trait ::= t_has | t_is
            t_has ::= HAS inner
            t_is ::= IS
            inner ::= n_a | n_b
            n_b ::= B
            """
        )
        return GrammarGraph(g)

    def test_simple_paths_only(self, cyclic_graph):
        paths = find_paths_between_apis(cyclic_graph, "A", "B")
        for p in paths:
            assert len(set(p.nodes)) == len(p.nodes), "path revisits a node"

    def test_extra_len_bound(self, cyclic_graph):
        tight = PathSearchLimits(max_path_len=30, max_extra_len=0)
        loose = PathSearchLimits(max_path_len=30, max_extra_len=10)
        n_tight = len(find_paths_between_apis(cyclic_graph, "A", "B", tight))
        n_loose = len(find_paths_between_apis(cyclic_graph, "A", "B", loose))
        assert n_tight <= n_loose

    def test_visit_budget_terminates(self, cyclic_graph):
        limits = PathSearchLimits(max_visits=5)
        # must not hang, and returns at most a handful of paths
        paths = find_paths_between_apis(cyclic_graph, "A", "B", limits)
        assert len(paths) <= 5


class TestLimitsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_path_len": 1},
            {"max_paths": 0},
            {"max_visits": 0},
            {"max_paths_per_edge": 0},
            {"max_extra_len": -1},
        ],
    )
    def test_bad_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PathSearchLimits(**kwargs)


class TestPathCatalog:
    def test_edge_scoped_ids(self):
        first = PathCatalog.label(1, [("a", "b"), ("a", "c")])
        second = PathCatalog.label(2, [("x", "y")])
        assert [p.path_id for p in first] == ["1.1", "1.2"]
        assert [p.path_id for p in second] == ["2.1"]
        assert first[1] == GrammarPath("1.2", ("a", "c"))

    def test_all_paths(self):
        """Every node tuple is labeled, in order, from any iterable."""
        nodes = [("a", "b"), ("a", "c", "b"), ("d",)]
        labeled = PathCatalog.label(3, iter(nodes))
        assert [p.nodes for p in labeled] == nodes
        assert [p.path_id for p in labeled] == ["3.1", "3.2", "3.3"]
        assert PathCatalog.label(4, []) == []
