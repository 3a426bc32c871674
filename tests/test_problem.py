"""Unit tests for synthesis-problem construction (the shared front end)."""

import pytest

from repro.errors import SynthesisError
from repro.grammar.graph import api_id, literal_id
from repro.grammar.interning import GraphInterner
from repro.grammar.paths import PathSearchLimits
from repro.synthesis.problem import build_problem


class TestCandidates:
    def test_words_resolve_to_api_endpoints(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string")
        root_cands = prob.candidates[prob.dep_graph.root]
        assert root_cands[0].api_name == "INSERT"
        assert root_cands[0].rank == 0

    def test_literals_resolve_to_slots_in_order(self, toy_domain):
        prob = build_problem(toy_domain, 'insert ":"')
        lit_node = next(n for n in prob.dep_graph.nodes() if n.is_literal)
        cands = prob.candidates[lit_node.node_id]
        assert [c.node_id for c in cands] == [
            literal_id("str_val"),
            literal_id("occ_val"),
        ]
        assert all(c.value == ":" for c in cands)
        assert [c.rank for c in cands] == [0, 1]

    def test_numbers_resolve_to_number_slots(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string at position 5")
        num = next(n for n in prob.dep_graph.nodes() if n.pos == "CD")
        assert [c.node_id for c in prob.candidates[num.node_id]] == [
            literal_id("num_val"),
            literal_id("from_val"),
        ]

    def test_candidateless_words_dropped(self, toy_domain):
        prob = build_problem(toy_domain, "kindly insert a string")
        words = {n.lemma for n in prob.dep_graph.nodes()}
        assert "kindly" not in words

    def test_unmatchable_query_rejected(self, toy_domain):
        with pytest.raises(SynthesisError):
            build_problem(toy_domain, "zebra giraffe")


class TestEdgePaths:
    def test_root_paths_present(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string")
        assert prob.root_paths
        assert all(cp.src == toy_domain.graph.start_id for cp in prob.root_paths)

    def test_edge_paths_per_candidate_pair(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string")
        edge = prob.dep_graph.edges()[0]
        paths = prob.paths_of(edge)
        assert paths
        assert all(cp.src == api_id("INSERT") for cp in paths)

    def test_no_trivial_self_paths(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string into lines")
        for edge in prob.dep_graph.edges():
            for cp in prob.paths_of(edge):
                assert cp.src != cp.dst

    def test_per_edge_cap(self, toy_domain):
        limits = PathSearchLimits(max_paths_per_edge=1)
        prob = build_problem(toy_domain, "delete numbers", limits=limits)
        for edge in prob.dep_graph.edges():
            assert len(prob.paths_of(edge)) <= 1

    def test_catalog_ids_follow_paper_convention(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string")
        assert prob.root_paths[0].path_id.startswith("1.")
        edge = prob.dep_graph.edges()[0]
        assert prob.paths_of(edge)[0].path_id.startswith("2.")

    def test_total_paths(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string")
        assert prob.total_paths() == len(prob.root_paths) + sum(
            len(prob.paths_of(e)) for e in prob.dep_graph.edges()
        )


class TestEdgeMemo:
    """Labeled edge paths are memoized per endpoint node ids, limits and
    catalog edge number, so literal variants of a query share them."""

    @staticmethod
    def _edges(prob):
        return [
            [(cp.path_id, cp.path.nodes) for cp in prob.paths_of(edge)]
            for edge in prob.dep_graph.edges()
        ]

    def test_literal_variants_share_labeled_paths(self, toy_domain):
        first = build_problem(toy_domain, 'insert ":"')
        hits = toy_domain.path_cache.edges.hits
        second = build_problem(toy_domain, 'insert ";"')
        assert toy_domain.path_cache.edges.hits > hits
        lit = next(n for n in second.dep_graph.nodes() if n.is_literal)
        (edge,) = [e for e in second.dep_graph.edges() if e.dep == lit.node_id]
        ours, theirs = second.paths_of(edge), first.paths_of(edge)
        assert ours and [cp.path for cp in ours] == [cp.path for cp in theirs]
        assert all(a.path is b.path for a, b in zip(ours, theirs))
        # The shared paths carry this query's own literal.
        assert {cp.dst_candidate.value for cp in ours} == {";"}
        assert {cp.dst_candidate.value for cp in theirs} == {":"}

    def test_memo_hit_matches_fresh_computation(self, toy_domain):
        query = "insert a string containing numbers"
        warm = build_problem(toy_domain, query)
        again = build_problem(toy_domain, query)
        toy_domain.path_cache.clear()
        assert len(toy_domain.path_cache.edges) == 0
        fresh = build_problem(toy_domain, query)
        assert self._edges(again) == self._edges(warm) == self._edges(fresh)
        assert [cp.path_id for cp in again.root_paths] == [
            cp.path_id for cp in fresh.root_paths
        ]

    def test_limits_do_not_share_entries(self, toy_domain):
        capped = build_problem(
            toy_domain, "delete numbers",
            limits=PathSearchLimits(max_paths_per_edge=1),
        )
        full = build_problem(toy_domain, "delete numbers")
        for edge in full.dep_graph.edges():
            assert len(capped.paths_of(edge)) <= 1
        assert full.total_paths() > capped.total_paths()


class TestEncodings:
    """Paths stay int encodings from the search to the DP; strings and
    objects are built only for the paths an edge keeps."""

    @staticmethod
    def _edges(prob):
        return [(prob.root_paths, prob.root_groups)] + [
            (prob.edge_paths[key], prob.edge_groups[key])
            for key in prob.edge_paths
        ]

    def test_find_paths_returns_int_tuples(self, toy_domain):
        encs = toy_domain.path_cache.find_paths(
            toy_domain.graph.start_id, api_id("NUMBERTOKEN")
        )
        assert isinstance(encs, tuple) and len(encs) > 1
        for enc in encs:
            assert isinstance(enc, tuple)
            assert all(type(node) is int for node in enc)

    def test_dropped_paths_are_never_decoded(self, toy_domain, monkeypatch):
        decoded = []
        original = GraphInterner.decode_nodes

        def recording(self, enc):
            decoded.append(enc)
            return original(self, enc)

        monkeypatch.setattr(GraphInterner, "decode_nodes", recording)
        toy_domain.path_cache.clear()
        prob = build_problem(
            toy_domain, "delete numbers",
            limits=PathSearchLimits(max_paths_per_edge=1),
        )
        kept = [cp.enc for paths, _groups in self._edges(prob) for cp in paths]
        raw = {enc for encs in prob._path_cache.values() for enc in encs}
        assert raw - set(kept), "the cap should drop some paths"
        assert sorted(decoded) == sorted(kept)
        path_memo = toy_domain.path_cache.interner._path_memo
        for enc in raw - set(kept):
            assert original(toy_domain.path_cache.interner, enc) not in path_memo

    def test_groups_hold_each_pair_lightest_first(self, toy_domain):
        prob = build_problem(toy_domain, 'insert ":" into lines containing numbers')
        interner = toy_domain.path_cache.interner
        for paths, groups in self._edges(prob):
            assert sorted(map(id, paths)) == sorted(
                id(cp) for group in groups for cp in group
            )
            position = {id(cp): i for i, cp in enumerate(paths)}
            pairs = [
                {(cp.src_candidate, cp.dst_candidate) for cp in group}
                for group in groups
            ]
            assert all(len(pair) == 1 for pair in pairs)
            assert len(set.union(set(), *pairs)) == len(groups)
            for group in groups:
                keys = [
                    (interner.size_of_enc(cp.enc), position[id(cp)])
                    for cp in group
                ]
                assert keys == sorted(keys)
            for cp in paths:
                assert cp.enc == interner.path_ints(cp.path.nodes)


class TestOrphans:
    def test_orphan_detected(self, toy_domain):
        # "string containing numbers": STRING has no path to CONTAINS.
        prob = build_problem(toy_domain, "insert a string containing numbers")
        orphans = prob.orphan_nodes()
        assert len(orphans) == 1
        assert prob.dep_graph.node(orphans[0]).lemma == "contain"

    def test_start_attach_paths(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string containing numbers")
        orphan = prob.orphan_nodes()[0]
        paths = prob.start_attach_paths(orphan)
        assert paths
        assert all(cp.src == toy_domain.graph.start_id for cp in paths)

    def test_no_orphans_on_clean_query(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string")
        assert prob.orphan_nodes() == []


class TestWithDepGraph:
    def test_rebuild_shares_path_cache(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string containing numbers")
        clone = prob.with_dep_graph(prob.dep_graph.copy())
        assert clone._path_cache is prob._path_cache
        assert clone.total_paths() == prob.total_paths()

    def test_rebuild_after_reattach(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string containing numbers")
        orphan = prob.orphan_nodes()[0]
        graph = prob.dep_graph.copy()
        graph.reattach(orphan, graph.root, "reloc")
        rebuilt = prob.with_dep_graph(graph)
        assert rebuilt.orphan_nodes() == []


class TestReranker:
    def test_reranker_hook_applied(self, toy_domain):
        from dataclasses import replace

        calls = []

        def reranker(node, dep_graph, entries):
            calls.append(node.lemma)
            return list(reversed(entries))

        domain = replace(toy_domain, candidate_reranker=reranker)
        build_problem(domain, "insert a string")
        assert "insert" in calls
