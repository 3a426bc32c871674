"""Unit tests for the dynamic grammar graph (paper Sec. IV-B.1, Fig. 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_graph import InternedDynamicGraph
from repro.errors import SynthesisError
from repro.grammar.graph import api_id, literal_id
from repro.grammar.interning import GraphInterner, interner_for
from repro.grammar.paths import find_paths
from repro.synthesis.problem import CandidatePath, EndpointCandidate


def api_cand(name, rank=0):
    return EndpointCandidate(node_id=api_id(name), api_name=name, rank=rank)


def lit_cand(slot, value, rank=0):
    return EndpointCandidate(node_id=literal_id(slot), value=value, rank=rank)


def cpath(graph, src_cand, dst_cand, index=0, path_id="1.1"):
    paths = find_paths(graph, src_cand.node_id, dst_cand.node_id)
    return CandidatePath(paths[index].with_id(path_id), src_cand, dst_cand)


class Table:
    """An :class:`InternedDynamicGraph` addressed by grammar node ids."""

    def __init__(self, graph):
        self.interner = interner_for(graph)
        self.dyng = InternedDynamicGraph(self.interner)

    def node_int(self, node_id):
        return self.interner.index[node_id]

    def slot(self, dep_id, node_id):
        return self.dyng._slot[self.dyng.key_int(dep_id, self.node_int(node_id))]

    def has(self, dep_id, node_id):
        return self.dyng.has(dep_id, self.node_int(node_id))

    def optimal(self, dep_id, node_id):
        return self.dyng.optimal(dep_id, self.node_int(node_id))

    def min_size(self, dep_id, node_id):
        return self.optimal(dep_id, node_id)[2]

    def offer_path(self, gov_dep_id, cp, pred_dep_id):
        enc = self.interner.path_ints(cp.path.nodes)
        self.dyng.offer_path(gov_dep_id, cp, enc, self.slot(pred_dep_id, cp.dst))

    def add_pcgt(self, gov_dep_id, src_node_id, combo, leaf_keys, tree_cost):
        masks = [self.interner.enc_masks(self.interner.path_ints(cp.path.nodes))
                 for cp in combo]
        em = dm = onm = 0
        for m in masks:
            em |= m[0]
            dm |= m[2]
            onm |= m[3]
        slots = [self.slot(dep, node_id) for dep, node_id in leaf_keys]
        return self.dyng.add_pcgt(
            gov_dep_id, self.node_int(src_node_id), (em, dm, onm), combo,
            slots, tree_cost, 0,
        )


class TestLeaves:
    def test_api_leaf_min_size_one(self, toy_graph):
        t = Table(toy_graph)
        t.dyng.add_leaf(3, api_cand("LINESCOPE"))
        assert t.min_size(3, api_id("LINESCOPE")) == 1

    def test_literal_leaf_min_size_zero(self, toy_graph):
        # The paper omits min_size-0 fields in Fig. 5 — literal leaves.
        t = Table(toy_graph)
        t.dyng.add_leaf(2, lit_cand("str_val", ":"))
        assert t.min_size(2, literal_id("str_val")) == 0

    def test_leaf_rank_recorded(self, toy_graph):
        t = Table(toy_graph)
        t.dyng.add_leaf(3, api_cand("WORDSCOPE", rank=2))
        assert t.optimal(3, api_id("WORDSCOPE"))[3] == 2

    def test_missing_node_error(self, toy_graph):
        t = Table(toy_graph)
        with pytest.raises(SynthesisError):
            t.optimal(0, api_id("INSERT"))
        assert not t.has(0, api_id("INSERT"))


class TestOfferPath:
    def test_paper_worked_example_sizes(self, toy_graph):
        # Fig. 5: min_size(N_STRING) = 1 via path [STRING -> str_val].
        t = Table(toy_graph)
        t.dyng.add_leaf(2, lit_cand("str_val", ":"))
        cp = cpath(toy_graph, api_cand("STRING"), lit_cand("str_val", ":"))
        t.offer_path(1, cp, 2)
        _edges, bindings, size, _rank = t.optimal(1, api_id("STRING"))
        assert size == 1
        assert bindings[literal_id("str_val")] == ":"

    def test_min_kept_across_offers(self, toy_graph):
        t = Table(toy_graph)
        t.dyng.add_leaf(3, api_cand("NUMBERTOKEN"))
        short = cpath(toy_graph, api_cand("DELETE"), api_cand("NUMBERTOKEN"), 0)
        long_ = cpath(
            toy_graph, api_cand("DELETE"), api_cand("NUMBERTOKEN"), 1, "1.2"
        )
        sizes = sorted(p.path.size(toy_graph) for p in (short, long_))
        t.offer_path(0, long_, 3)
        t.offer_path(0, short, 3)
        assert t.min_size(0, api_id("DELETE")) == sizes[0] + 1

    def test_rank_breaks_ties(self, toy_graph):
        t = Table(toy_graph)
        t.dyng.add_leaf(3, api_cand("LINESCOPE", rank=0))
        t.dyng.add_leaf(4, api_cand("WORDSCOPE", rank=1))
        # Same size via symmetric or-alternatives; rank decides.
        cp_good = cpath(toy_graph, api_cand("INSERT"), api_cand("LINESCOPE"))
        cp_bad = cpath(
            toy_graph, api_cand("INSERT"), api_cand("WORDSCOPE"), 0, "1.2"
        )
        t.offer_path(0, cp_bad, 4)
        t.offer_path(0, cp_good, 3)
        edges, _bindings, _size, rank = t.optimal(0, api_id("INSERT"))
        assert rank == 0
        assert ("nt:iter_scope", api_id("LINESCOPE")) in edges

    def test_binding_conflict_returns_none(self, toy_graph):
        t = Table(toy_graph)
        t.dyng.add_leaf(2, lit_cand("str_val", ":"))
        first = cpath(toy_graph, api_cand("STRING"), lit_cand("str_val", ":"))
        t.offer_path(1, first, 2)
        # A second word binding a different value into the same slot.
        t.dyng.add_leaf(4, lit_cand("str_val", "#"))
        clash = cpath(toy_graph, api_cand("STRING"), lit_cand("str_val", "#"))
        t.offer_path(1, clash, 4)
        # Same-slot different-value offers are either rejected or replace
        # cleanly; the memo never holds a merged conflict.
        _edges, bindings, size, _rank = t.optimal(1, api_id("STRING"))
        assert bindings in (
            {literal_id("str_val"): ":"},
            {literal_id("str_val"): "#"},
        )
        assert size == 1


class TestPcgt:
    def test_pcgt_combines_children(self, toy_graph):
        t = Table(toy_graph)
        t.dyng.add_leaf(3, lit_cand("str_val", ":"))
        cp_str = cpath(toy_graph, api_cand("STRING"), lit_cand("str_val", ":"))
        t.offer_path(1, cp_str, 3)

        t.dyng.add_leaf(2, api_cand("LINESCOPE"))
        cp1 = cpath(toy_graph, api_cand("INSERT"), api_cand("STRING"), 0, "2.1")
        cp2 = cpath(toy_graph, api_cand("INSERT"), api_cand("LINESCOPE"), 0, "3.1")
        created = t.add_pcgt(
            0,
            api_id("INSERT"),
            [cp1, cp2],
            [(1, api_id("STRING")), (2, api_id("LINESCOPE"))],
            tree_cost=2,  # INSERT + ITERATIONSCOPE (sinks excluded)
        )
        assert created
        assert t.dyng.n_pcgt_nodes == 1
        _edges, bindings, size, _rank = t.optimal(0, api_id("INSERT"))
        # 2 (tree) + 1 (STRING subtree) + 1 (LINESCOPE leaf) = 4
        assert size == 4
        assert bindings[literal_id("str_val")] == ":"

    def test_cross_level_conflict_rejected(self, toy_graph):
        # Force a pred whose subtree uses an or-alternative the new path
        # also needs differently: occ_arg -> NUMBERTOKEN vs occ_arg -> occ_val.
        t = Table(toy_graph)
        t.dyng.add_leaf(2, api_cand("NUMBERTOKEN"))
        cp_inner = cpath(
            toy_graph, api_cand("CONTAINS"), api_cand("NUMBERTOKEN")
        )
        t.offer_path(1, cp_inner, 2)
        clash = cpath(
            toy_graph, api_cand("CONTAINS"), lit_cand("occ_val", "x"), 0, "9.1"
        )
        t.dyng.add_leaf(3, lit_cand("occ_val", "x"))
        created = t.add_pcgt(
            0,
            api_id("CONTAINS"),
            [clash],
            [(3, literal_id("occ_val")), (1, api_id("CONTAINS"))],
            tree_cost=1,
        )
        assert not created  # occ_arg would take two alternatives
        assert t.dyng.n_pcgt_nodes == 0

    def test_optimal_unpacks(self, toy_graph):
        t = Table(toy_graph)
        t.dyng.add_leaf(0, api_cand("INSERT", rank=3))
        edges, bindings, size, rank = t.optimal(0, api_id("INSERT"))
        assert edges == frozenset()
        assert bindings == {}
        assert size == 1 and rank == 3


class _EdgeTable:
    """The part of a :class:`GraphInterner` that ``offer``'s tie-break
    reads: the dense edge-bit table, its bits handed out in an order
    unrelated to the codes (first sight assigns them)."""

    n = 1
    edge_codes_of_mask = GraphInterner.edge_codes_of_mask

    def __init__(self, codes):
        self._bit_code = list(codes)
        self._edge_bit = {code: bit for bit, code in enumerate(codes)}


class TestTieBreak:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_sorted_tuple_comparison(self, data):
        # On a full (size, rank, edge count) tie the memo keeps the
        # lexicographically smaller sorted edge-code tuple.
        codes = data.draw(
            st.lists(st.integers(0, 10_000), min_size=1, max_size=40, unique=True)
        )
        bits = st.integers(0, len(codes) - 1)
        count = data.draw(st.integers(1, len(codes)))
        held = data.draw(st.sets(bits, min_size=count, max_size=count))
        offered = data.draw(st.sets(bits, min_size=count, max_size=count))
        dyng = InternedDynamicGraph(_EdgeTable(codes))
        masks = [sum(1 << bit for bit in s) for s in (held, offered)]
        for mask in masks:
            dyng.offer(0, 3, 1, mask, 0, 0, {})

        def edges(s):
            return tuple(sorted(codes[bit] for bit in s))

        expected = masks[1] if edges(offered) < edges(held) else masks[0]
        assert dyng._emask[dyng._slot[0]] == expected
