"""The edge -> path search against a plainly recursive reference.

``_search_enc`` answers a search that round 1 decides alone from the
shortest-path DAG's counting and k-best lists, and runs the DFS
otherwise.  Both must agree with the semantics its docstring states;
``reference_paths`` below restates them as directly as possible, and
hypothesis compares the two — the kept paths and their interior weights
— on random cyclic grammars under random caps, including the visit-cap
boundary ``cnt[dst]`` in {cap - 1, cap, cap + 1}.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.domains import load_domain
from repro.grammar.bnf import parse_bnf
from repro.grammar.graph import GrammarGraph, api_id, nonterminal_id
from repro.grammar.interning import interner_for
from repro.grammar.paths import PathSearchLimits, _search_enc, find_paths
from tests.conftest import bfs_distances
from tests.data.make_paths_golden import record

PATHS_GOLDEN = Path(__file__).parent / "data" / "paths_golden.jsonl"


def reference_paths(graph, src, dst, limits):
    """Capped iterative deepening, one recursive call per node entered.

    Returns ``(paths, weights, visits)``: the node tuples ``src -> ...
    -> dst`` the search keeps, in DFS order, their interior weights, and
    the visits it made."""
    dist = bfs_distances(graph, src)
    if dst not in dist:
        return [], [], 0
    found = []  # (interior weight, node count, DFS index, path)
    visits = 0

    def visit(node, stack, remaining):
        nonlocal visits
        if visits >= limits.max_visits:
            return False  # a search stopped at the cap does nothing more
        visits += 1
        if node == src:
            if remaining == 0:
                weight = sum(graph.api_weight(n) for n in stack[1:-1])
                found.append((weight, len(stack), len(found), stack[::-1]))
            return True
        preds = sorted(
            (dist[e.src], e.src) for e in graph.predecessors(node)
            if e.src in dist
        )
        for d, pred in preds:
            if d <= remaining - 1 and pred not in stack:
                if not visit(pred, stack + (pred,), remaining - 1):
                    return False
        return True

    shortest = dist[dst] + 1
    longest = min(limits.max_path_len, shortest + limits.max_extra_len)
    for length in range(shortest, longest + 1):
        visit(dst, (dst,), length - 1)
        if len(found) >= limits.max_paths or visits >= limits.max_visits:
            break
    kept = sorted(sorted(found)[: limits.max_paths], key=lambda f: f[2])
    return [f[3] for f in kept], [f[0] for f in kept], visits


# ---------------------------------------------------------------------------
# Random cyclic grammars
# ---------------------------------------------------------------------------

@st.composite
def grammars(draw):
    """A random grammar over non-terminals ``n0..``, all derivable from
    ``n0``.  Non-terminals sit in layers of ``width``; each rule names
    next-layer non-terminals with probability ``density`` (which makes
    many equal-length paths) plus up to two arbitrary ones (back edges
    and shortcuts, so the graph is usually cyclic).  Either every rule
    is a concatenation or choice, or every rule hangs its successors
    below a head API ``H{i}`` (weight 1, or 0 when generic)."""
    width = draw(st.sampled_from((1, 2, 3, 4)))
    n = draw(st.sampled_from(range(2, 17)))
    density = draw(st.sampled_from((0.3, 0.6, 0.9)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    succs = []
    for i in range(n):
        layer = range((i // width + 1) * width, min(n, (i // width + 2) * width))
        forward = {j for j in layer if rng.random() < density}
        extra = {rng.randrange(n) for _ in range(rng.randrange(3))}
        succs.append(sorted(forward | extra))
    for i in range(1, n):
        parent = rng.randrange(i)
        if i not in succs[parent]:
            succs[parent].append(i)
    headed = draw(st.booleans())
    lines, apis, generic = [], set(), set()
    for i, targets in enumerate(succs):
        symbols = [f"n{j}" for j in targets] or [f"T{i}"]
        joiner = rng.choice((" ", " | "))
        if headed:  # every hop is two edges, via the head API
            symbols.insert(0, f"H{i}")
            joiner = " "
            apis.add(f"H{i}")
            if rng.random() < 0.5:
                generic.add(f"H{i}")
        lines.append(f"n{i} ::= " + joiner.join(symbols))
    grammar = parse_bnf("\n".join(lines))
    return GrammarGraph(grammar, api_names=apis, generic_apis=generic)


limits_args = st.fixed_dictionaries({
    "max_path_len": st.integers(2, 9),
    "max_paths": st.integers(1, 8),
    "max_visits": st.integers(1, 120),
    "max_extra_len": st.integers(0, 3),
})


def endpoints(graph):
    """A source and a different node: unrestricted, or among the farthest
    third of the nodes the source reaches (where paths multiply)."""
    node_ids = sorted(n.node_id for n in graph.nodes())

    @st.composite
    def pair(draw):
        src = draw(st.sampled_from(node_ids))
        dist = bfs_distances(graph, src)
        reached = sorted(set(dist) - {src}, key=lambda n: (dist[n], n))
        if reached and draw(st.booleans()):
            return src, draw(st.sampled_from(reached[-(len(reached) + 2) // 3:]))
        return src, draw(st.sampled_from([n for n in node_ids if n != src]))

    return pair()


def _assert_same(graph, src, dst, limits):
    expected, weights, _visits = reference_paths(graph, src, dst, limits)
    interner = interner_for(graph)
    encs, got_weights = _search_enc(
        interner, interner.index[src], interner.index[dst], limits
    )
    got = [interner.decode_nodes(enc) for enc in encs]
    assert (got, got_weights) == (expected, weights), (
        src, dst, limits.cache_key()
    )


class TestAgainstReference:
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(grammars(), limits_args, st.data())
    def test_random_graphs_and_caps(self, graph, kwargs, data):
        src, dst = data.draw(endpoints(graph))
        _assert_same(graph, src, dst, PathSearchLimits(**kwargs))

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(grammars(), st.integers(2, 4), st.data())
    def test_visit_cap_boundary(self, graph, max_paths, data):
        """``max_visits`` at round 1's visit count and one either side
        (the cap cuts round 1, ends the search exactly, or lets round 2
        run), and every smaller cap, which splits round 1's DFS order at
        each point in turn; with ``max_paths`` 1 and a drawn one."""
        src, dst = data.draw(endpoints(graph))
        round_one = PathSearchLimits(
            max_path_len=64, max_paths=1 << 30, max_extra_len=0,
            max_visits=1 << 30,
        )
        _paths, _weights, cnt = reference_paths(graph, src, dst, round_one)
        caps = {cnt - 1, cnt, cnt + 1} | set(range(1, 40))
        for cap in sorted(cap for cap in caps if cap >= 1):
            for k in {1, max_paths}:
                _assert_same(graph, src, dst, PathSearchLimits(
                    max_path_len=64, max_paths=k, max_visits=cap,
                    max_extra_len=2,
                ))

    def test_shortest_longer_than_max_path_len(self, toy_graph):
        src, dst = api_id("INSERT"), api_id("NUMBERTOKEN")
        shortest = len(find_paths(toy_graph, src, dst)[0].nodes)
        for max_path_len in (shortest - 1, shortest):
            _assert_same(
                toy_graph, src, dst, PathSearchLimits(max_path_len=max_path_len)
            )
        assert not find_paths(
            toy_graph, src, dst, PathSearchLimits(max_path_len=shortest - 1)
        )


# ---------------------------------------------------------------------------
# Ranks wider than 64 bits
# ---------------------------------------------------------------------------


def _layered_graph(layers, free):
    """``c0 -> ... -> c{layers}``: every layer offers a heavy branch
    through API ``H{i}`` (weight 1) and a light one through ``l{i}``
    (weight 0), each three edges long; the ``free`` layers nearest
    ``c0`` offer two light branches instead.  All 2**layers paths are
    shortest, and the DFS tries a layer's branches in node-id order."""
    rules = []
    for i in range(layers):
        nxt = f"c{i + 1}"
        if i < free:
            rules += [f"c{i} ::= la{i} | lb{i}", f"la{i} ::= ma{i}",
                      f"ma{i} ::= {nxt}", f"lb{i} ::= mb{i}",
                      f"mb{i} ::= {nxt}"]
        else:
            rules += [f"c{i} ::= h{i} | l{i}", f"h{i} ::= H{i} {nxt}",
                      f"l{i} ::= m{i}", f"m{i} ::= {nxt}"]
    rules.append(f"c{layers} ::= END")
    grammar = parse_bnf("\n".join(rules))
    apis = [f"H{i}" for i in range(free, layers)]
    return GrammarGraph(grammar, api_names=apis)


class TestWideRanks:
    def test_ranks_past_64_bits_order_exactly(self):
        """70 layers give 2**70 shortest paths.  The eight weight-0 paths
        take the light branch on every heavy layer, which the DFS tries
        last, so their ranks exceed 2**64 and differ only in the low
        three bits; the best three must be the first three in DFS order."""
        layers, free = 70, 3
        graph = _layered_graph(layers, free)
        src, dst = nonterminal_id("c0"), nonterminal_id(f"c{layers}")
        limits = PathSearchLimits(
            max_path_len=3 * layers + 1, max_paths=3, max_visits=1 << 80,
        )

        def path(low_bits):
            nodes = [src]
            for i in range(layers):
                if i < free:
                    side = "b" if low_bits >> i & 1 else "a"
                    nodes += [f"nt:l{side}{i}", f"nt:m{side}{i}"]
                else:
                    nodes += [f"nt:l{i}", f"nt:m{i}"]
                nodes.append(nonterminal_id(f"c{i + 1}"))
            return tuple(nodes)

        got = [p.nodes for p in find_paths(graph, src, dst, limits)]
        assert got == [path(0), path(1), path(2)]
        interner = interner_for(graph)
        dag = interner.dag_slot
        npaths = dag.info(interner.index[dst])[1]
        assert npaths == 2 ** layers > 2 ** 64


# ---------------------------------------------------------------------------
# Concurrent searches share the interner's DAG slot
# ---------------------------------------------------------------------------


class TestConcurrentSearch:
    def test_threads_reproduce_golden(self):
        """Eight threads search every ASTMatcher golden pair on one fresh
        domain.  They take the sources in step (a barrier per source, so
        they fill one DAG together) and each shuffles a source's pairs
        differently; every result must match the golden row."""
        domain = load_domain("astmatcher", fresh=True)
        blocks = {}
        with PATHS_GOLDEN.open() as fh:
            for line in fh:
                row = json.loads(line)
                if row[0] == "astmatcher":
                    blocks.setdefault(row[1], []).append(row)
        mismatches = []
        errors = []
        in_step = threading.Barrier(8)

        def run(seed):
            rng = random.Random(seed)
            try:
                for rows in blocks.values():
                    in_step.wait(timeout=60)
                    rows = rows[:]
                    rng.shuffle(rows)
                    for row in rows:
                        limits = PathSearchLimits(*row[3])
                        got = record(
                            "astmatcher", domain.graph, row[1], row[2], limits
                        )
                        if got != row:
                            mismatches.append(row)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
                in_step.abort()  # release the other threads at once

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [
                threading.Thread(target=run, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert not mismatches, mismatches[:3]
