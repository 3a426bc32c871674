"""Unit tests for synthesis-problem construction (the shared front end)."""

import pytest

from repro.core.dggt import DggtEngine
from repro.domains.textediting.queries import TEXTEDITING_QUERIES
from repro.domains import load_domain
from repro.errors import ReproError, SynthesisError
from repro.grammar.graph import api_id, literal_id
from repro.grammar.interning import GraphInterner
from repro.grammar.path_cache import PathCache
from repro.grammar.paths import PathSearchLimits
from repro.synthesis.domain import Domain
from repro.synthesis.pipeline import Synthesizer
from repro.synthesis.problem import SynthesisProblem, build_problem
from tests.conftest import encode


def _capped(prob):
    """``prob`` rebuilt under a per-edge cap of one path: ranking's own
    route to a second cap (the limits argument of SynthesisProblem)."""
    return SynthesisProblem(
        prob.domain, prob.dep_graph, prob.candidates,
        PathSearchLimits(max_paths_per_edge=1),
    )


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
        prob = _capped(build_problem(toy_domain, "delete numbers"))
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
        full = build_problem(toy_domain, "delete numbers")
        capped = _capped(full)
        for edge in full.dep_graph.edges():
            assert len(capped.paths_of(edge)) <= 1
        assert full.total_paths() > capped.total_paths()

    def test_ranking_cap_shares_the_pair_search(self):
        """The ``paths`` layer keys on what one pair's search reads, not
        the per-edge cap: after a TextEditing suite pass with candidates
        (exclusion re-synthesis runs under ranking's tighter cap), every
        endpoint pair is searched and stored once, under the domain's
        own key."""
        domain = load_domain("textediting", fresh=True)
        synth = Synthesizer(domain)
        for case in TEXTEDITING_QUERIES:
            try:
                synth.synthesize(case.query, candidates=4)
            except ReproError:
                pass
        keys = [key for key, _entry in domain.path_cache.paths.items()]
        pairs = {(src, dst) for src, dst, _limits in keys}
        assert len(pairs) == len(keys)
        assert {limits for _s, _d, limits in keys} == {
            domain.path_limits.search_key()
        }

    def test_warm_registration_makes_no_pair_lookups(self, toy_domain):
        """An ``edges`` memo hit needs no pair's paths: a literal variant
        of a built query reads the ``paths`` layer not at all."""
        toy_domain.path_cache.clear()
        build_problem(toy_domain, 'insert ":" into lines containing numbers')
        cache = toy_domain.path_cache
        paths = (cache.paths.hits, cache.paths.misses)
        edge_hits, edge_misses = cache.edges.hits, cache.edges.misses
        build_problem(toy_domain, 'insert "-" into lines containing numbers')
        assert cache.edges.hits > edge_hits
        assert cache.edges.misses == edge_misses
        assert (cache.paths.hits, cache.paths.misses) == paths


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
        encs, sizes = toy_domain.path_cache.find_paths(
            toy_domain.graph.start_id, api_id("NUMBERTOKEN")
        )
        assert isinstance(encs, tuple) and len(encs) > 1
        for enc in encs:
            assert isinstance(enc, tuple)
            assert all(type(node) is int for node in enc)
        assert isinstance(sizes, tuple) and len(sizes) == len(encs)
        assert all(type(size) is int for size in sizes)

    def test_dropped_paths_are_never_decoded(self, toy_domain, monkeypatch):
        decoded = []
        original = GraphInterner.decode_nodes

        def recording(self, enc):
            decoded.append(enc)
            return original(self, enc)

        toy_domain.path_cache.clear()
        full = build_problem(toy_domain, "delete numbers")
        monkeypatch.setattr(GraphInterner, "decode_nodes", recording)
        prob = _capped(full)
        kept = [cp.enc for paths, _groups in self._edges(prob) for cp in paths]
        raw = {
            enc
            for _key, (encs, _sizes) in prob.cache.paths.items()
            for enc in encs
        }
        assert raw - set(kept), "the cap should drop some paths"
        assert sorted(decoded) == sorted(kept)

    def test_groups_hold_each_pair_lightest_first(self, toy_domain):
        prob = build_problem(toy_domain, 'insert ":" into lines containing numbers')
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
                keys = [(cp.size, position[id(cp)]) for cp in group]
                assert keys == sorted(keys)
            for cp in paths:
                assert cp.enc == encode(toy_domain.graph, cp.path.nodes)
                assert cp.size == cp.path.size(toy_domain.graph)


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
        misses = prob.cache.paths.misses
        clone = prob.with_dep_graph(prob.dep_graph.copy())
        assert clone.cache is prob.cache
        assert prob.cache.paths.misses == misses
        assert clone.total_paths() == prob.total_paths()

    def test_rebuild_after_reattach(self, toy_domain):
        prob = build_problem(toy_domain, "insert a string containing numbers")
        orphan = prob.orphan_nodes()[0]
        graph = prob.dep_graph.copy()
        graph.reattach(orphan, graph.root, "reloc")
        rebuilt = prob.with_dep_graph(graph)
        assert rebuilt.orphan_nodes() == []


class TestBoundCache:
    """A problem resolves ``Domain.path_cache`` once, when it is built,
    and its relocation variants share that cache."""

    @staticmethod
    def _count(monkeypatch):
        reads, built = [], []
        prop = Domain.path_cache

        def counting_cache(domain):
            reads.append(1)
            return prop.fget(domain)

        init = SynthesisProblem.__init__

        def counting_init(problem, *args, **kwargs):
            built.append(1)
            init(problem, *args, **kwargs)

        monkeypatch.setattr(Domain, "path_cache", property(counting_cache))
        monkeypatch.setattr(SynthesisProblem, "__init__", counting_init)
        return reads, built

    def test_warm_query_resolves_domain_cache_once_per_problem(
        self, textediting, monkeypatch
    ):
        queries = [c.query for c in TEXTEDITING_QUERIES[:20]]
        engine = DggtEngine()

        def run_all():
            for query in queries:
                try:
                    engine.synthesize(build_problem(textediting, query))
                except SynthesisError:
                    pass

        run_all()  # warm
        reads, built = self._count(monkeypatch)
        run_all()
        assert built and len(reads) <= len(built)

    def test_problem_keeps_its_cache_across_a_reload(
        self, toy_domain, monkeypatch
    ):
        problem = build_problem(
            toy_domain, "insert a string containing numbers"
        )
        bound = problem.cache
        reloaded = PathCache(toy_domain.graph)
        monkeypatch.setattr(toy_domain, "_path_cache", reloaded)
        assert toy_domain.path_cache is reloaded
        out = DggtEngine().synthesize(problem)
        assert out.stats.n_reloc_variants >= 1
        assert problem.cache is bound
        assert not any(reloaded.snapshot().values())


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
