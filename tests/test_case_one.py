"""DGGT Case I (Algorithm 1 lines 5-11): the lightest-first cutoff.

``DggtEngine._case_one`` walks each endpoint pair's paths lightest first
and stops at the first that cannot beat the target slot.  These tests
pin it to the exhaustive loop it replaced — every path offered in
catalog order — on a crafted edge and on random ones: the same slots,
the same three counters, and fewer ``offer_path`` calls.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dggt import DggtEngine
from repro.core.dynamic_graph import VIRTUAL, InternedDynamicGraph
from repro.grammar.bnf import parse_bnf
from repro.grammar.graph import GrammarGraph, NodeKind, api_id
from repro.grammar.interning import interner_for
from repro.grammar.path_cache import PathCache
from repro.grammar.paths import GrammarPath, find_paths
from repro.synthesis.problem import CandidatePath, EndpointCandidate
from repro.synthesis.result import SynthesisStats
from tests.conftest import encode

#: One pair with four paths: three weigh 2 (through B, C or D) and the
#: one through plain non-terminals weighs 1 — and is found last.
CRAFTED_BNF = """
top ::= A arg
arg ::= B leaf | C leaf | D leaf | mid
mid ::= wrap
wrap ::= leaf
leaf ::= E
"""

COUNTERS = ("n_combinations", "n_merged", "n_valid_cgts")


def _cand(graph, node_id, rank=0, value=None):
    node = graph.node(node_id)
    return EndpointCandidate(
        node_id=node_id,
        api_name=node.label if node.kind is NodeKind.API else None,
        value=value,
        rank=rank,
    )


def _edge(graph, pairs):
    """(catalog-order paths, lightest-first pair groups) of one edge whose
    endpoint pairs are ``pairs``, built the way ``SynthesisProblem``
    builds them."""
    cache = PathCache(graph)
    decode = cache.interner.decode_nodes
    paths, groups = [], []
    for src, dst in pairs:
        group = []
        encs, sizes = cache.find_paths(src.node_id, dst.node_id)
        for enc, size in zip(encs, sizes):
            path = GrammarPath(f"1.{len(paths) + 1}", decode(enc))
            cp = CandidatePath(path, src, dst, enc, size)
            group.append((size, len(paths), cp))
            paths.append(cp)
        if group:
            groups.append(tuple(cp for _s, _i, cp in sorted(group)))
    return paths, tuple(groups)


def _exhaustive(dyng, gov_dep_id, child_dep_id, paths, stats):
    """The loop the cutoff replaced: every path, catalog order."""
    base = (child_dep_id + 1) * dyng.n
    for cp in paths:
        pred_slot = dyng._slot.get(base + cp.enc[-1])
        if pred_slot is None:
            continue
        dyng.offer_path(gov_dep_id, cp, cp.enc, cp.size, pred_slot)
        stats.n_combinations += 1
        stats.n_merged += 1
        stats.n_valid_cgts += 1


def _table(dyng):
    """Every memo slot, decoded to node-id strings."""
    n = dyng.n
    return {
        key: dyng.optimal(key // n - 1, key % n) for key in dyng._slot
    }


@pytest.fixture
def offer_calls(monkeypatch):
    calls = []
    original = InternedDynamicGraph.offer_path

    def counting(self, *args):
        calls.append(args[1].path_id)
        return original(self, *args)

    monkeypatch.setattr(InternedDynamicGraph, "offer_path", counting)
    return calls


def _run(seed_table, walk, *args):
    dyng, stats = seed_table(), SynthesisStats()
    walk(dyng, *args, stats)
    return _table(dyng), tuple(getattr(stats, c) for c in COUNTERS)


class TestCraftedEdge:
    @pytest.fixture(scope="class")
    def graph(self):
        return GrammarGraph(
            parse_bnf(CRAFTED_BNF), api_names=("A", "B", "C", "D", "E")
        )

    def test_lightest_path_found_last(self, graph):
        paths, groups = _edge(
            graph, [(_cand(graph, api_id("A")), _cand(graph, api_id("E")))]
        )
        interner = interner_for(graph)
        assert [cp.size for cp in paths] == [2, 2, 2, 1]
        assert [interner.size_of_enc(cp.enc) for cp in paths] == [2, 2, 2, 1]
        assert groups[0][0] is paths[-1]

    def test_cutoff_offers_less_and_matches_exhaustive(
        self, graph, offer_calls
    ):
        interner = interner_for(graph)
        a, e = _cand(graph, api_id("A")), _cand(graph, api_id("E"))
        paths, groups = _edge(graph, [(a, e)])

        def seeded():
            dyng = InternedDynamicGraph(interner)
            dyng.add_leaf(1, e)
            return dyng

        exhaustive = _run(seeded, _exhaustive, 0, 1, paths)
        n_exhaustive = len(offer_calls)
        del offer_calls[:]
        cutoff = _run(seeded, DggtEngine._case_one, 0, 1, groups)
        assert cutoff == exhaustive
        assert exhaustive[1] == (4, 4, 4)
        assert n_exhaustive == 4
        # The weight-1 path lands first; every weight-2 path would lose.
        assert offer_calls == [paths[-1].path_id]
        target = (0 + 1) * interner.n + interner.index[a.node_id]
        assert cutoff[0][target][2] == 2

    def test_no_predecessor_counts_nothing(self, graph, offer_calls):
        a, e = _cand(graph, api_id("A")), _cand(graph, api_id("E"))
        _paths, groups = _edge(graph, [(a, e)])
        dyng, stats = InternedDynamicGraph(interner_for(graph)), SynthesisStats()
        DggtEngine._case_one(dyng, 0, 1, groups, stats)
        assert len(dyng) == 0 and not offer_calls
        assert (stats.n_combinations, stats.n_merged, stats.n_valid_cgts) == (
            0, 0, 0,
        )


def _random_edge(graph, rng):
    """A random Case I edge over ``graph``: governor and dependent
    candidates with random ranks (the governor may be the grammar
    start), predecessor slots seeded with random sizes, ranks, subtrees
    and literal bindings, and sometimes a target slot already holding a
    rival."""
    interner = interner_for(graph)
    apis = sorted(n.node_id for n in graph.api_nodes())
    literals = sorted(
        n.node_id for n in graph.nodes() if n.kind is NodeKind.LITERAL
    )
    if rng.random() < 0.3:
        govs = [_cand(graph, graph.start_id)]
    else:
        govs = [
            _cand(graph, node_id, rank=rng.randrange(3))
            for node_id in rng.sample(apis, rng.randint(1, 3))
        ]
    deps = [
        _cand(graph, node_id, rank=rng.randrange(3))
        for node_id in rng.sample(apis, rng.randint(1, 3))
    ] + [
        _cand(graph, node_id, rank=rng.randrange(3), value=rng.choice("xy"))
        for node_id in rng.sample(literals, rng.randint(0, min(3, len(literals))))
    ]
    rng.shuffle(deps)
    pairs = [(g, d) for g in govs for d in deps if g.node_id != d.node_id]
    paths, groups = _edge(graph, pairs)
    subtrees = {}
    for dep in deps:
        if rng.random() < 0.2:
            continue  # no predecessor slot for this dependent
        below = [
            encode(graph, p.nodes)
            for other in rng.sample(apis + literals, 6)
            if other != dep.node_id
            for p in find_paths(graph, dep.node_id, other)[:2]
        ]
        masks = (0, 0, 0, 0, 0)
        if below and rng.random() < 0.5:
            masks = interner.enc_masks(rng.choice(below))
        bindings = {}
        if literals and rng.random() < 0.3:
            bindings = {
                interner.index[rng.choice(literals)]: rng.choice("xy")
            }
        subtrees[dep.node_id] = (
            rng.randrange(4), rng.randrange(4), masks, bindings
        )
    rivals = {
        g.node_id: (rng.randrange(2, 9), rng.randrange(6))
        for g in govs
        if rng.random() < 0.3
    }

    def seeded():
        dyng = InternedDynamicGraph(interner)
        for node_id, (size, rank, masks, bindings) in subtrees.items():
            em, _nm, dm, onm, _all = masks
            dyng.offer(
                dyng.key_int(1, interner.index[node_id]),
                size, rank, em, dm, onm, bindings,
            )
        for node_id, (size, rank) in rivals.items():
            dyng.offer(
                dyng.key_int(0, interner.index[node_id]),
                size, rank, 0, 0, 0, {},
            )
        return dyng

    return seeded, paths, groups


class TestRandomizedEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), domain=st.sampled_from(["toy", "te"]))
    def test_cutoff_matches_exhaustive(self, seed, domain, toy_graph, textediting):
        graph = toy_graph if domain == "toy" else textediting.graph
        rng = random.Random(seed)
        seeded, paths, groups = _random_edge(graph, rng)
        for gov_dep_id in (0, VIRTUAL):
            assert _run(
                seeded, DggtEngine._case_one, gov_dep_id, 1, groups
            ) == _run(seeded, _exhaustive, gov_dep_id, 1, paths)
