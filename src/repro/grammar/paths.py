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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

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

    Iterative deepening: every round collects the paths of one exact
    length, so all shorter paths are complete before any longer one is
    considered — when a cap bites, it keeps the shortest (and therefore
    most plausible) candidates, not whatever a depth-first order
    happened to flood first.  Within a round it is a DFS over
    predecessors in ascending distance from ``src`` (ties in node-id
    order), visiting a predecessor only if a shortest completion through
    it still fits the round's length budget.  ``limits.max_visits``
    counts one visit per node entered (a recursive formulation's calls);
    past ``max_paths`` results the shortest are kept.

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

    ``tests/data/paths_golden.jsonl`` pins the exact output of this
    search for every endpoint pair the four suites search.  Returns
    encodings; callers decode (or cache the encodings directly).
    """
    dist = interner.dist_from(src)
    if dist[dst] < 0:
        return []

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
        self._edge_count += 1
        labeled: List[GrammarPath] = []
        for k, path in enumerate(paths, start=1):
            final = path.with_id(f"{self._edge_count}.{k}")
            self._by_id[final.path_id] = final
            labeled.append(final)
        return labeled

    def get(self, path_id: str) -> GrammarPath:
        return self._by_id[path_id]

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def n_edges(self) -> int:
        return self._edge_count

    def all_paths(self) -> List[GrammarPath]:
        return list(self._by_id.values())
