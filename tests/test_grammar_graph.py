"""Unit tests for the grammar graph (paper Sec. II / IV-A structure)."""

import pytest

from repro.errors import GrammarError
from repro.grammar.bnf import parse_bnf
from repro.grammar.graph import (
    EdgeKind,
    GrammarGraph,
    NodeKind,
    api_id,
    literal_id,
    nonterminal_id,
)
from repro.grammar.interning import interner_for


class TestConstruction:
    def test_node_kinds(self, toy_graph):
        assert toy_graph.node(nonterminal_id("cmd")).kind is NodeKind.NONTERMINAL
        assert toy_graph.node(api_id("INSERT")).kind is NodeKind.API
        assert toy_graph.node(literal_id("str_val")).kind is NodeKind.LITERAL

    def test_unknown_api_name_rejected(self, toy_grammar):
        with pytest.raises(GrammarError):
            GrammarGraph(toy_grammar, api_names=["NOT_A_TERMINAL"])

    def test_or_edges_for_choice_rules(self, toy_graph):
        group = toy_graph.or_group(nonterminal_id("iter_scope"))
        assert set(group) == {api_id("LINESCOPE"), api_id("WORDSCOPE")}
        for target in group:
            assert toy_graph.edge(nonterminal_id("iter_scope"), target).kind is EdgeKind.OR

    def test_concat_edges_for_single_alt(self, toy_graph):
        edge = toy_graph.edge(nonterminal_id("ins_str"), api_id("STRING"))
        assert edge.kind is EdgeKind.CONCAT

    def test_head_api_convention(self, toy_graph):
        # insert_cmd ::= INSERT ins_str ins_pos ins_iter puts INSERT between
        # the rule and its arguments (paper Fig. 4 paths).
        args = toy_graph.head_arguments(api_id("INSERT"))
        assert args == [
            nonterminal_id("ins_str"),
            nonterminal_id("ins_pos"),
            nonterminal_id("ins_iter"),
        ]
        assert toy_graph.edge(api_id("INSERT"), nonterminal_id("ins_str")).kind is EdgeKind.CONCAT

    def test_derivation_node_for_multi_symbol_choice_alt(self):
        g = parse_bnf("s ::= A B | C")
        graph = GrammarGraph(g)
        drv = [n for n in graph.nodes() if n.kind is NodeKind.DERIVATION]
        assert len(drv) == 1
        assert drv[0].label == "A B"

    def test_shared_api_nodes(self, toy_graph):
        # STRING appears under ins_str and del_str: one node, two parents.
        preds = toy_graph.predecessors(api_id("STRING"))
        assert len(preds) == 2


class TestQueries:
    def test_descendants(self, toy_graph):
        interner = interner_for(toy_graph)
        assert interner.reaches(api_id("INSERT"), api_id("LINESCOPE"))
        assert not interner.reaches(api_id("INSERT"), api_id("DELETE"))

    def test_is_ancestor(self, toy_graph):
        interner = interner_for(toy_graph)
        assert interner.reaches(api_id("INSERT"), api_id("CONTAINS"))
        assert not interner.reaches(api_id("LINESCOPE"), api_id("INSERT"))
        # Acyclic: no node reaches itself.
        assert not interner.reaches(api_id("INSERT"), api_id("INSERT"))

    def test_api_ancestors_of(self, toy_graph):
        interner = interner_for(toy_graph)
        ancestors = {
            n.label
            for n in toy_graph.api_nodes()
            if interner.reaches(n.node_id, api_id("LINESCOPE"))
        }
        assert "INSERT" in ancestors
        assert "ITERATIONSCOPE" in ancestors
        assert "STRING" not in ancestors

    def test_distances_from(self, toy_graph):
        interner = interner_for(toy_graph)
        index = interner.index
        dist = interner.dist_from(interner.start)
        assert dist[interner.start] == 0
        assert dist[index[nonterminal_id("insert_cmd")]] == 1
        # unreachable nodes read -1
        assert interner.dist_from(index[api_id("STRING")])[interner.start] == -1

    def test_distances_cached_identity(self, toy_graph):
        interner = interner_for(toy_graph)
        src = interner.index[api_id("INSERT")]
        assert interner.dist_from(src) is interner.dist_from(src)

    def test_api_weight_default(self, toy_graph):
        assert toy_graph.api_weight(api_id("INSERT")) == 1
        assert toy_graph.api_weight(literal_id("str_val")) == 0
        assert toy_graph.api_weight(nonterminal_id("cmd")) == 0

    def test_api_weight_generic(self, toy_grammar):
        graph = GrammarGraph(
            toy_grammar,
            api_names=None,
            generic_apis=["ALWAYS"],
        )
        assert graph.api_weight(api_id("ALWAYS")) == 0
        assert graph.api_weight(api_id("INSERT")) == 1
        assert graph.generic_apis == frozenset({"ALWAYS"})

    def test_node_lookup_error(self, toy_graph):
        with pytest.raises(GrammarError):
            toy_graph.node("api:NOPE")

    def test_edge_lookup_error(self, toy_graph):
        with pytest.raises(GrammarError):
            toy_graph.edge(api_id("INSERT"), api_id("DELETE"))

    def test_or_group_map_readonly_view(self, toy_graph):
        assert toy_graph.or_group_map is toy_graph.or_group_map
        assert toy_graph.or_groups() == {
            k: list(v) for k, v in toy_graph.or_group_map.items()
        }


class TestDomainGraphs:
    def test_textediting_sizes(self, textediting):
        assert textediting.graph.n_nodes > 100
        assert len(textediting.graph.api_nodes()) == len(textediting.document)

    def test_astmatcher_sizes(self, astmatcher):
        assert len(astmatcher.graph.api_nodes()) == 505
        assert astmatcher.graph.n_edges > 10_000
