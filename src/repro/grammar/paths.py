"""Grammar paths and the reversed all-path search (paper Step 4, Sec. II).

A *grammar path* is a directed path in the grammar graph between two API
nodes (or from the grammar start to an API, for roots and orphans).  The
search corresponding to a dependency edge ``governor -> dependent`` starts
from a candidate API of the *dependent* and walks the grammar graph
**backward** until it reaches a candidate API of the *governor* — the
"reversed all-path search" of the paper.  Walking backward is the efficient
direction because grammar graphs fan out going down.

Sizes: ``size(path)`` counts the API nodes on the path *excluding the sink*
(the dependent-side endpoint).  The sink's own contribution lives in the
dynamic-grammar-graph node it resolves to (``min_size``), so sizes compose
additively along the dependency graph — see DESIGN.md "Path size accounting".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.grammar.graph import GrammarGraph, NodeKind
from repro.grammar.interning import GraphInterner, interner_for

#: Default cap on the number of nodes in one grammar path.  Recursive
#: grammars (ASTMatcher's nested matchers) have unboundedly long simple
#: paths; a dependency edge never needs more than a handful of rule
#: expansions, so a generous fixed cap loses nothing in practice.
DEFAULT_MAX_PATH_LEN = 24

#: Default cap on the number of paths returned for one (src, dst) pair.
DEFAULT_MAX_PATHS = 512

#: Default cap on DFS steps per (src, dst) pair — bounds the cost of
#: fruitless searches in highly recursive grammars.
DEFAULT_MAX_VISITS = 200_000

#: Default cap on the total candidate paths kept per dependency edge
#: (shortest paths win).  Mirrors the per-edge path counts the paper's
#: Table III reports.
DEFAULT_MAX_PATHS_PER_EDGE = 192

#: Default cap on how much longer than the per-pair shortest path a
#: candidate may be.  Paths far longer than the shortest carry piles of
#: unmentioned APIs and never win the smallest-CGT objective.
DEFAULT_MAX_EXTRA_LEN = 8


@dataclass(frozen=True)
class GrammarPath:
    """An immutable grammar path with a catalog-assigned identifier.

    ``path_id`` follows the paper's ``<edge>.<k>`` convention (e.g. "2.1")
    when produced by :class:`PathCatalog`; ad-hoc paths use "?".
    """

    path_id: str
    nodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise ValueError("a grammar path needs at least one node")

    @property
    def src(self) -> str:
        return self.nodes[0]

    @property
    def dst(self) -> str:
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.nodes)

    def edges(self) -> List[Tuple[str, str]]:
        return list(zip(self.nodes, self.nodes[1:]))

    def with_id(self, path_id: str) -> "GrammarPath":
        return GrammarPath(path_id, self.nodes)

    def api_nodes(self, graph: GrammarGraph) -> List[str]:
        return [n for n in self.nodes if graph.node(n).kind is NodeKind.API]

    def size(self, graph: GrammarGraph) -> int:
        """Semantic weight of the path's API nodes, excluding the sink (see
        module docstring).

        The source — an endpoint a query word resolved to — always counts
        1 when it is an API; *interior* nodes are the unmentioned APIs the
        path drags in, and generic catch-alls among them weigh 0 ("minimum
        unmentioned semantic", Sec. IV-B)."""
        total = sum(graph.api_weight(n) for n in self.nodes[1:-1])
        if graph.node(self.nodes[0]).kind is NodeKind.API:
            total += 1
        return total

    def describe(self, graph: GrammarGraph) -> str:
        labels = [graph.node(n).label for n in self.nodes]
        return f"{self.path_id}: " + " -> ".join(labels)


class PathSearchLimits:
    """Knobs for the all-path search (shared by both engines so the
    HISyn-vs-DGGT comparison is apples-to-apples)."""

    def __init__(
        self,
        max_path_len: int = DEFAULT_MAX_PATH_LEN,
        max_paths: int = DEFAULT_MAX_PATHS,
        max_visits: int = DEFAULT_MAX_VISITS,
        max_paths_per_edge: int = DEFAULT_MAX_PATHS_PER_EDGE,
        max_extra_len: int = DEFAULT_MAX_EXTRA_LEN,
    ):
        if max_path_len < 2:
            raise ValueError("max_path_len must be at least 2")
        if max_paths < 1:
            raise ValueError("max_paths must be at least 1")
        if max_visits < 1:
            raise ValueError("max_visits must be at least 1")
        if max_paths_per_edge < 1:
            raise ValueError("max_paths_per_edge must be at least 1")
        if max_extra_len < 0:
            raise ValueError("max_extra_len must be non-negative")
        self.max_path_len = max_path_len
        self.max_paths = max_paths
        self.max_visits = max_visits
        self.max_paths_per_edge = max_paths_per_edge
        self.max_extra_len = max_extra_len

    def cache_key(self) -> Tuple[int, int, int, int, int]:
        """Stable identity for cross-query caching: ``find_paths`` results
        are a pure function of (graph, endpoints, these five knobs)."""
        return (
            self.max_path_len,
            self.max_paths,
            self.max_visits,
            self.max_paths_per_edge,
            self.max_extra_len,
        )


def find_paths(
    graph: GrammarGraph,
    src_id: str,
    dst_id: str,
    limits: Optional[PathSearchLimits] = None,
) -> List[GrammarPath]:
    """All simple grammar paths ``src_id -> ... -> dst_id``.

    Implemented as the paper's reversed search: a DFS over *predecessor*
    edges from ``dst_id``, pruned by the memoized distances relation (a
    predecessor is only worth visiting if ``src_id`` can still reach it
    within the remaining length budget).  Results are deterministic
    (node-id order) and capped by ``limits``; see :func:`_search_enc`.
    """
    limits = limits or PathSearchLimits()
    if not graph.has_node(src_id) or not graph.has_node(dst_id):
        return []
    if src_id == dst_id:
        return [GrammarPath("?", (src_id,))]
    interner = interner_for(graph)
    encs = _search_enc(
        interner, interner.index[src_id], interner.index[dst_id], limits
    )
    decode = interner.decode_nodes
    return [GrammarPath("?", decode(enc)) for enc in encs]


def _search_enc(
    interner: GraphInterner,
    src: int,
    dst: int,
    limits: PathSearchLimits,
) -> List[Tuple[int, ...]]:
    """The reversed all-path search in interned int space.

    Semantics (what :func:`_search_dfs` computes): iterative deepening
    over exact path lengths, from the shortest up to
    ``min(max_path_len, shortest + max_extra_len)``, so all shorter paths
    are complete before any longer one is considered.  Within a round it
    is a DFS over predecessors in ascending ``(distance from src, node
    id)`` order that enters a predecessor only if a shortest completion
    through it still fits the round's length budget.  ``max_visits``
    counts one visit per node entered; past ``max_paths`` results the
    ``max_paths`` best by (interior weight, node count, DFS order) are
    kept, in DFS order.

    In round 1 every node the DFS enters lies at distance exactly
    ``budget`` from ``src``, so the round walks the *shortest-path DAG*:
    ``v``'s usable predecessors are ``L(v) = [p in preds(v) if dist[p] ==
    dist[v] - 1]`` in node-id order, and every path in it is simple.
    :class:`ShortestPathDag` counts over that DAG (``cnt[v]``, the DFS
    visits in ``v``'s subtree, and ``npaths[v]``) before any search:

    * ``npaths[dst] < max_paths`` and ``cnt[dst] < max_visits``: round 1
      neither fills nor exhausts the search, so later rounds run; they
      are not DAGs and need the on-stack check, so the DFS runs as is;
    * otherwise round 1 decides the result alone, and the DAG's k-best
      lists give it exactly (:meth:`ShortestPathDag.best`) without
      enumerating the paths, visit cap included.

    The DAG depends on ``src`` and ``max_paths`` but not on ``dst``; the
    interner keeps it for the most recent pair only (``dag_slot``, one
    slot with no capacity setting: consecutive searches mostly share a
    source, and a per-source memo costs far more memory than it saves).

    ``tests/data/paths_golden.jsonl`` pins the exact output of this
    search for every endpoint pair the four suites search.  Returns
    encodings; callers decode (or cache the encodings directly).
    """
    dist = interner.dist_from(src)
    if dist[dst] < 0 or dist[dst] + 1 > limits.max_path_len:
        return []
    dag = interner.dag_slot
    if dag is None or dag.src != src or dag.k != limits.max_paths:
        dag = ShortestPathDag(interner, src, limits.max_paths)
        interner.dag_slot = dag
    cnt, npaths = dag.info(dst)[:2]
    if npaths < limits.max_paths and cnt < limits.max_visits:
        return _search_dfs(interner, src, dst, limits)
    return dag.best(dst, limits.max_visits)


_first = itemgetter(0)
_second = itemgetter(1)

#: A node's counts in the shortest-path DAG: ``(cnt, npaths, L(node),
#: offsets)``, ``offsets`` being the prefix sums of ``npaths`` over L.
DagInfo = Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]

#: A node's k-best keys: ``(interior weight, ranks)`` groups by ascending
#: weight, each group's ranks ascending, ``k`` ranks in all at most.
KBest = List[Tuple[int, List[int]]]


def _merge_kbest(pieces: List[Tuple[int, int, KBest]], k: int) -> KBest:
    """The k best keys of several k-best lists, each shifted by its
    ``(weight, rank)`` offset.  The pieces' rank ranges must ascend in
    list order (predecessors in DFS order), so within one weight the
    shifted groups concatenate already sorted."""
    by_weight: Dict[int, List[Tuple[int, List[int]]]] = {}
    for w_shift, r_shift, groups in pieces:
        for w, ranks in groups:
            by_weight.setdefault(w + w_shift, []).append((r_shift, ranks))
    out: KBest = []
    for w in sorted(by_weight):
        merged: List[int] = []
        for r_shift, ranks in by_weight[w]:
            merged += [r + r_shift for r in ranks] if r_shift else ranks
            if len(merged) >= k:
                del merged[k:]
                break
        out.append((w, merged))
        k -= len(merged)
        if not k:
            break
    return out


class ShortestPathDag:
    """Round 1 of the search from one source as a dynamic program over
    its shortest-path DAG, filled lazily per node.

    Two semirings run over ``L(v)`` (see :func:`_search_enc`):

    * **counting** — ``cnt[v] = 1 + sum(cnt[p])`` (``cnt[src] = 1``) and
      ``npaths[v] = sum(npaths[p])`` (``npaths[src] = 1``).  A path's
      *rank* — its index in the DFS order — is the offset of its
      predecessor among ``v``'s (``offsets``, prefix sums of ``npaths``)
      plus its rank below that predecessor; ranks are Python ints, so
      path counts past 2**64 still order exactly.
    * **k-best** — ``kbest[v]``: the ``k`` smallest ``(interior weight,
      rank)`` keys of the paths ``src -> ... -> v`` (:data:`KBest`), a
      merge of the predecessors' lists shifted by the predecessor's
      weight and offset.  Node count is constant in round 1, so this is
      the search's trim order.  Only the kept keys are unranked into node
      tuples.

    Per node the state is published once complete (one list-slot store
    per value), so threads that share a DAG never read a half-filled
    node; at worst two threads compute the same value twice.
    """

    __slots__ = ("src", "k", "dist", "preds", "weight", "infos", "lists")

    def __init__(self, interner: GraphInterner, src: int, k: int):
        self.src = src
        self.k = k
        self.dist = interner.dist_from(src)
        self.preds = interner.preds
        weight = list(interner.weight)
        weight[src] = 0  # the source is no interior node
        self.weight = weight
        #: node -> its DagInfo, or None while unbuilt.
        self.infos: List[Optional[DagInfo]] = [None] * interner.n
        self.infos[src] = (1, 1, (), ())
        #: node -> its k-best keys, or None while unbuilt.
        self.lists: List[Optional[KBest]] = [None] * interner.n
        self.lists[src] = [(0, [0])]

    def info(self, v: int) -> DagInfo:
        """``(cnt, npaths, L(v), offsets)``, building ``v``'s unbuilt DAG
        ancestors first."""
        infos = self.infos
        out = infos[v]
        if out is not None:
            return out
        preds = self.preds
        dist = self.dist
        levels = []
        level = [v]
        while level:
            # A level's nodes share one distance from src, so no node is
            # reached at two levels and the levels reversed are a
            # topological order.
            below = dist[level[0]] - 1
            kids = [
                tuple([p for p in preds[u] if dist[p] == below])
                for u in level
            ]
            levels.append((level, kids))
            level = [p for p in set().union(*kids) if infos[p] is None]
        for level, kids in reversed(levels):
            for u, children in zip(level, kids):
                if len(children) == 1:  # most grammar nodes: one way in
                    p_cnt, p_paths = infos[children[0]][:2]
                    infos[u] = (1 + p_cnt, p_paths, children, (0,))
                    continue
                subs = [infos[p] for p in children]
                offsets = tuple(accumulate(map(_second, subs), initial=0))
                infos[u] = (
                    1 + sum(map(_first, subs)),
                    offsets[-1],
                    children,
                    offsets[:-1],
                )
        return infos[v]

    def kbest(self, v: int) -> KBest:
        """``v``'s k-best keys (``v`` must already be counted)."""
        lists = self.lists
        out = lists[v]
        if out is not None:
            return out
        infos = self.infos
        weight = self.weight
        k = self.k
        levels = []
        level = [v]
        while level:
            levels.append(level)
            level = [
                p for p in set().union(*(infos[u][2] for u in level))
                if lists[p] is None
            ]
        for level in reversed(levels):
            for u in level:
                _cnt, _paths, children, offsets = infos[u]
                if len(children) == 1:  # offset 0: the ranks carry over
                    p = children[0]
                    w = weight[p]
                    lists[u] = (
                        [(pw + w, ranks) for pw, ranks in lists[p]]
                        if w else lists[p]
                    )
                    continue
                lists[u] = _merge_kbest(
                    [
                        (weight[p], off, lists[p])
                        for p, off in zip(children, offsets)
                    ],
                    k,
                )
        return lists[v]

    def best(self, dst: int, max_visits: int) -> List[Tuple[int, ...]]:
        """Round 1's result for ``dst`` (which must already be counted):
        the k best kept paths, in DFS order.

        The visit cap keeps the paths whose ``src`` visit has DFS preorder
        number ``<= max_visits``: a prefix of the DFS order.  When
        ``cnt[dst]`` exceeds the cap, that prefix splits along a single
        boundary chain from ``dst`` into whole subtrees left of it, whose
        k-best lists are merged with the chain's weight and rank prefix.
        """
        infos = self.infos
        if infos[dst][0] <= max_visits:
            kept = self.kbest(dst)
        else:
            weight = self.weight
            pieces = []
            v = dst
            pos = 1  # preorder number of v's visit
            w_pre = 0  # weight of the chain below v, dst excluded
            r_pre = 0  # rank offset of v's subtree among dst's paths
            while v is not None:
                _cnt, _paths, children, offsets = infos[v]
                entry = pos + 1
                v = None
                for p, off in zip(children, offsets):
                    p_cnt = infos[p][0]
                    if entry + p_cnt - 1 <= max_visits:
                        pieces.append(
                            (w_pre + weight[p], r_pre + off, self.kbest(p))
                        )
                        entry += p_cnt
                        continue
                    if entry <= max_visits:
                        # The cap falls inside p's subtree: walk down it.
                        v = p
                        pos = entry
                        w_pre += weight[p]
                        r_pre += off
                    break
            kept = _merge_kbest(pieces, self.k)
        ranks = sorted(rank for _w, group in kept for rank in group)
        return [self.unrank(dst, rank) for rank in ranks]

    def unrank(self, dst: int, rank: int) -> Tuple[int, ...]:
        """The ``(src, ..., dst)`` encoding of ``dst``'s path ``rank``."""
        infos = self.infos
        src = self.src
        nodes = [dst]
        v = dst
        while v != src:
            _cnt, _paths, children, offsets = infos[v]
            if len(children) == 1:
                v = children[0]
            else:
                j = bisect_right(offsets, rank) - 1
                rank -= offsets[j]
                v = children[j]
            nodes.append(v)
        nodes.reverse()
        return tuple(nodes)


def _search_dfs(
    interner: GraphInterner,
    src: int,
    dst: int,
    limits: PathSearchLimits,
) -> List[Tuple[int, ...]]:
    """The search by depth-first enumeration (all rounds; the semantics
    :func:`_search_enc` states).

    Two mechanical choices keep the hot loop tight:

    * the recursion is unrolled onto depth-indexed arrays (no Python
      call or allocation per frame);
    * the visit cap is not tested per visit.  Each recorded path is
      tagged with its visit number; a round runs slightly past the cap
      (bounded overshoot — the cap is re-checked at every frame pop) and
      is then reconciled: results tagged past the cap are dropped and
      the counter is clamped.  This is exact because a search stopped at
      the cap records nothing and changes nothing after it — the visit
      sequence up to the cap is identical, so the kept results and the
      final counter are those of a search that stops exactly at the cap.
    """
    dist = interner.dist_from(src)
    preds_of = interner.sorted_preds(src)
    rows = interner._preds_memo[src]
    weight = interner.weight
    # Results stay in raw form until the trim settles which survive: the
    # stack slice ``[dst, ..., nearest-to-src]``, its interior weight sum,
    # and its visit tag — three parallel lists.  Only survivors are
    # materialized as (src, ..., dst) encodings at the end.
    results: List[List[int]] = []
    rsizes: List[int] = []
    rtags: List[int] = []
    on_stack = [0] * interner.n
    on_stack[dst] = 1
    visits = 0
    max_visits = limits.max_visits
    max_paths = limits.max_paths

    min_len = dist[dst] + 1
    longest = min(limits.max_path_len, min_len + limits.max_extra_len)
    # Depth-indexed frames: path[0..d] is the stack (dst first), F_i[k]
    # the resume index of the frame at depth k, W[k] the running weight of
    # path[1..k] (every stack node except dst — exactly the interior nodes
    # of a completed path).  The budget at depth d is target_len - d - 2,
    # so it steps by one per descend/pop and prev == src completes a path
    # of exactly target_len iff budget == 0.
    path = [0] * (longest + 1)
    path[0] = dst
    F_i = [0] * (longest + 1)
    W = [0] * (longest + 1)
    results_append = results.append
    rsizes_append = rsizes.append
    rtags_append = rtags.append

    for target_len in range(min_len, longest + 1):
        # visit(dst, target_len) — dst != src is guaranteed by the caller.
        if visits >= max_visits:
            break
        visits += 1
        entry = rows[dst]
        if entry is None:
            entry = preds_of(dst)
        dists, prevs = entry
        i = 0
        d = 0
        budget = target_len - 2
        while True:
            # sorted ascending with a trailing sentinel: the first pred too
            # far for the budget (or the sentinel) ends the frame's scan.
            if dists[i] <= budget:
                prev = prevs[i]
                i += 1
                if on_stack[prev]:
                    continue
                visits += 1
                if prev == src:
                    if budget == 0:
                        results_append(path[: d + 1])
                        rsizes_append(W[d])
                        rtags_append(visits)
                    continue
                # Descend: save the resume index, make prev current.
                F_i[d] = i
                d += 1
                path[d] = prev
                W[d] = W[d - 1] + weight[prev]
                on_stack[prev] = 1
                entry = rows[prev]
                if entry is None:
                    entry = preds_of(prev)
                dists, prevs = entry
                i = 0
                budget -= 1
                continue
            # Frame exhausted: pop back to the parent.
            if d == 0:
                break
            on_stack[path[d]] = 0
            d -= 1
            budget += 1
            if visits >= max_visits:
                # Past the cap every remaining call is a no-op; unwind.
                while d > 0:
                    on_stack[path[d]] = 0
                    d -= 1
                break
            dists, prevs = rows[path[d]]
            i = F_i[d]
        if visits > max_visits:
            # Reconcile the bounded overshoot with capped semantics.
            while rtags and rtags[-1] > max_visits:
                rtags.pop()
                rsizes.pop()
                results.pop()
            visits = max_visits
        if len(results) >= max_paths or visits >= max_visits:
            break

    if len(results) > max_paths:
        # Trim order is (path size, node count, insertion index).
        # Within one search both endpoints are fixed, so the recorded
        # interior weight differs from the true size by a constant and the
        # raw length by exactly one — the sort order is identical, and the
        # decorated tuples compare at C speed.
        dec = sorted(zip(rsizes, map(len, results), range(len(results))))
        keep = sorted(j for _size, _len, j in dec[:max_paths])
        results = [results[j] for j in keep]
    src_t = (src,)
    return [src_t + tuple(reversed(raw)) for raw in results]


def find_paths_between_apis(
    graph: GrammarGraph,
    src_api: str,
    dst_api: str,
    limits: Optional[PathSearchLimits] = None,
) -> List[GrammarPath]:
    """Paths between two named APIs (convenience wrapper)."""
    if not graph.has_api(src_api) or not graph.has_api(dst_api):
        return []
    return find_paths(
        graph, graph.api_node(src_api).node_id, graph.api_node(dst_api).node_id, limits
    )


def find_paths_from_start(
    graph: GrammarGraph,
    dst_api: str,
    limits: Optional[PathSearchLimits] = None,
) -> List[GrammarPath]:
    """Paths from the grammar start symbol down to ``dst_api``.

    HISyn uses this for the dependency root and for orphan nodes attached to
    the root — the expensive treatment that orphan relocation (Sec. V-B)
    avoids.
    """
    if not graph.has_api(dst_api):
        return []
    return find_paths(graph, graph.start_id, graph.api_node(dst_api).node_id, limits)


class PathCatalog:
    """Assigns the paper's ``<edge>.<k>`` identifiers to grammar paths.

    One catalog is created per query; dependency edges are registered in
    traversal order and each edge's candidate paths get ids ``e.1, e.2, ...``
    exactly as in the paper's figures.
    """

    def __init__(self) -> None:
        self._by_id: Dict[str, GrammarPath] = {}
        self._edge_count = 0

    def register_edge(self, paths: Iterable[GrammarPath]) -> List[GrammarPath]:
        """Register one dependency edge's candidate paths; returns them with
        their final ids assigned."""
        return self.adopt_edge(
            self.label(self._edge_count + 1, (path.nodes for path in paths))
        )

    @staticmethod
    def label(
        edge: int, node_tuples: Iterable[Tuple[str, ...]]
    ) -> List[GrammarPath]:
        """Paths over ``node_tuples`` with the ids ``edge.1, edge.2, ...``."""
        return [
            GrammarPath(f"{edge}.{k}", nodes)
            for k, nodes in enumerate(node_tuples, start=1)
        ]

    def adopt_edge(self, labeled: Sequence[GrammarPath]) -> List[GrammarPath]:
        """Register the next edge's paths, already labeled by
        :meth:`label` with that edge's number."""
        self._edge_count += 1
        by_id = self._by_id
        for path in labeled:
            by_id[path.path_id] = path
        return list(labeled)

    def get(self, path_id: str) -> GrammarPath:
        return self._by_id[path_id]

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def n_edges(self) -> int:
        return self._edge_count

    def all_paths(self) -> List[GrammarPath]:
        return list(self._by_id.values())
