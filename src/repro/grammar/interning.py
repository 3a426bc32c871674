"""Dense integer interning of a grammar graph — the DGGT hot-path core.

Every per-query structure the dynamic program touches (grammar paths,
conflict pairs, DP memo keys, CGT edge sets) was historically keyed by
grammar-node *strings*.  The grammar graph is immutable, so all of that
identity can be assigned once: :class:`GraphInterner` maps node id <-> a
dense integer, a grammar path to an immutable tuple of ints (its
*encoding*, ``enc``), and a grammar edge to a single int code
``src * n + dst``.  Downstream, set probes become bit tests, frozenset
keys become int tuples, and snapshot payloads become flat int arrays.

Order preservation is the load-bearing invariant: node ints are assigned
in **sorted node-id order**, so for any two nodes ``a < b`` (as strings)
iff ``intern(a) < intern(b)``.  Every deterministic tie-break in the
engine (sorted edge sets in the DP memo, the ``(distance, id)``
predecessor order of the path search, canonical edge tuples in
``CGT.sort_key``) compares identically in int space, so the outcome is
the one the string-keyed algorithm defines, byte for byte — not merely
an equivalent one.  Edge codes inherit the property: with both
components below ``n``, ``a1*n+b1 < a2*n+b2`` iff ``(a1, b1) < (a2, b2)``
lexicographically.

One interner is built per :class:`GrammarGraph` and cached on the graph
object (:func:`interner_for`); everything it memoizes is a pure function
of the graph.  It keeps no per-path size memo: the path search returns
each kept path's interior weight with its encoding.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.grammar.graph import GrammarGraph, NodeKind

#: A grammar path as a tuple of interned node ints.
IntPath = Tuple[int, ...]

#: Sentinel distance appended to every sorted predecessor-distance tuple.
#: Far above any real distance or length budget, it lets the path search's
#: inner loop run on a single ``dists[i] <= budget`` test with no separate
#: bounds check — the sentinel always fails the test first.
SENTINEL_DIST = 1 << 30


class GraphInterner:
    """Integer identity for one (immutable) grammar graph.

    Attributes are plain tuples/dicts so the structure pickles cleanly and
    reads need no method-call overhead on the hot path:

    ``node_ids``  sorted node-id strings; position = interned int.
    ``index``     node-id string -> int.
    ``n``         node count (edge codes are ``src * n + dst``).
    ``weight``    per-int ``graph.api_weight`` (0 for generics/non-APIs).
    ``is_api``    per-int "kind is API" flag.
    ``start``     interned grammar start node.
    ``or_groups``      choice non-terminal int -> frozenset of alternative
                       ints (membership tests during validity checks).
    ``or_group_lists`` same groups with the grammar's alternative *order*
                       preserved (the vote analysis iterates in order).
    ``preds``     per-int tuple of predecessor ints, ascending.
    ``succs``     per-int tuple of successor ints, built once from ``preds``
                  (the BFS of :meth:`dist_from` walks it).
    """

    def __init__(self, graph: GrammarGraph):
        self.graph = graph
        self.node_ids: Tuple[str, ...] = tuple(
            sorted(n.node_id for n in graph.nodes())
        )
        self.n = len(self.node_ids)
        self.index: Dict[str, int] = {
            node_id: i for i, node_id in enumerate(self.node_ids)
        }
        self.weight: Tuple[int, ...] = tuple(
            graph.api_weight(node_id) for node_id in self.node_ids
        )
        self.is_api: Tuple[bool, ...] = tuple(
            graph.node(node_id).kind is NodeKind.API
            for node_id in self.node_ids
        )
        self.start = self.index[graph.start_id]
        index = self.index
        self.or_groups: Dict[int, FrozenSet[int]] = {
            index[nt]: frozenset(index[alt] for alt in alts)
            for nt, alts in graph.or_group_map.items()
        }
        self.or_group_lists: Dict[int, Tuple[int, ...]] = {
            index[nt]: tuple(index[alt] for alt in alts)
            for nt, alts in graph.or_group_map.items()
        }
        self.preds: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(index[e.src] for e in graph.predecessors(node_id)))
            for node_id in self.node_ids
        )
        succs: List[List[int]] = [[] for _ in range(self.n)]
        for node, node_preds in enumerate(self.preds):
            for pred in node_preds:
                succs[pred].append(node)
        self.succs: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, succs))
        # Dense edge-bit table for the bitmask validity algebra: each
        # distinct edge code gets the next free bit on first sight, so
        # per-path edge sets become ints unioned with one OR.  The or-edge
        # mask marks bits whose edge selects a choice alternative.
        self._edge_bit: Dict[int, int] = {}
        self._bit_code: List[int] = []
        self.or_edge_mask: int = 0
        self._mask_memo: Dict[IntPath, Tuple[int, int, int, int, int]] = {}
        # Bits of nodes with non-zero semantic weight (cost iteration only
        # touches these).
        self.weight_mask: int = 0
        for i, w in enumerate(self.weight):
            if w:
                self.weight_mask |= 1 << i
        self._dist_memo: Dict[int, List[int]] = {}
        # src int -> dense row per node of (dists, preds) parallel tuples
        # sorted by (dist, pred), or None while unbuilt; shared across
        # find_paths calls, so no search re-sorts predecessors per call.
        # A list row (not a dict) so the
        # search's frame transitions are specialized list indexing.
        self._preds_memo: Dict[
            int, List[Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]]
        ] = {}
        # The path search's shortest-path DAG for the most recent
        # (source, max_paths) only (``repro.grammar.paths.ShortestPathDag``):
        # one slot, replaced whole, so threads that race on it each keep
        # the complete DAG they read.
        self.dag_slot = None

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------

    def enc_masks(self, enc: IntPath) -> Tuple[int, int, int, int, int]:
        """The path's bitmask record ``(edges, tree_nodes, children,
        or_nonterminals, all_nodes)`` — the currency of the interned
        engine's validity algebra (memoized per encoding).

        ``edges`` has one dense bit per distinct edge (:attr:`_edge_bit`);
        the node masks use the node int as the bit.  ``tree_nodes`` and
        ``children`` cover only edge-incident nodes — a single-node path
        contributes no edges and therefore zeros, matching ``CGT.nodes()``
        — while ``all_nodes`` covers every node of the encoding (the cost
        accounting wants sources of trivial paths too).
        ``or_nonterminals`` marks choice non-terminals whose or-edge the
        path takes.  The algebra: masks of a fused tree are the ORs of the
        member masks, and the validity checks reduce to popcounts —
        parent-uniqueness is ``|edges| == |children|``, single-rootedness
        is ``|tree_nodes| - |children| == 1``, and the one-alternative rule
        is ``|edges & or_edge_mask| == |or_nonterminals|``.
        """
        cached = self._mask_memo.get(enc)
        if cached is None:
            if len(enc) < 2:
                cached = (0, 0, 0, 0, 1 << enc[0])
            else:
                n = self.n
                edge_bit = self._edge_bit
                or_groups = self.or_groups
                em = 0
                onm = 0
                for a, b in zip(enc, enc[1:]):
                    code = a * n + b
                    bit = edge_bit.get(code)
                    if bit is None:
                        bit = len(self._bit_code)
                        edge_bit[code] = bit
                        self._bit_code.append(code)
                        alts = or_groups.get(a)
                        if alts is not None and b in alts:
                            self.or_edge_mask |= 1 << bit
                    em |= 1 << bit
                    alts = or_groups.get(a)
                    if alts is not None and b in alts:
                        onm |= 1 << a
                nm = 0
                for x in enc:
                    nm |= 1 << x
                # A grammar path is simple, so children = nodes minus the
                # path source.
                cached = (em, nm, nm & ~(1 << enc[0]), onm, nm)
            self._mask_memo[enc] = cached
        return cached

    def edge_codes_of_mask(self, em: int) -> List[int]:
        """The edge codes of a dense edge mask (unsorted)."""
        bit_code = self._bit_code
        codes: List[int] = []
        while em:
            low = em & -em
            codes.append(bit_code[low.bit_length() - 1])
            em ^= low
        return codes

    def decode_nodes(self, enc: IntPath) -> Tuple[str, ...]:
        ids = self.node_ids
        return tuple(ids[i] for i in enc)

    def decode_edge(self, code: int) -> Tuple[str, str]:
        a, b = divmod(code, self.n)
        ids = self.node_ids
        return (ids[a], ids[b])

    # ------------------------------------------------------------------
    # Reachability (int-space BFS over the successor table)
    # ------------------------------------------------------------------

    def dist_from(self, src_int: int) -> List[int]:
        """Shortest-path distance from ``src_int`` to every node as a flat
        list (-1 = unreachable): a BFS over :attr:`succs`, memoized per
        source.  The list is published only once complete."""
        cached = self._dist_memo.get(src_int)
        if cached is None:
            succs = self.succs
            cached = [-1] * self.n
            cached[src_int] = 0
            frontier = [src_int]
            depth = 0
            while frontier:
                depth += 1
                next_frontier: List[int] = []
                for current in frontier:
                    for nxt in succs[current]:
                        if cached[nxt] < 0:
                            cached[nxt] = depth
                            next_frontier.append(nxt)
                frontier = next_frontier
            self._dist_memo[src_int] = cached
        return cached

    def sorted_preds(
        self, src_int: int
    ) -> Callable[[int], Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """A lookup ``node int -> (dists, preds)`` — two parallel tuples
        sorted ascending by ``(dist, pred)``, restricted to predecessors
        reachable from ``src_int``.  ``dists`` carries a trailing
        :data:`SENTINEL_DIST` so the search's inner loop needs no separate
        bounds check (``preds`` has no matching element; the failing
        sentinel test stops the scan before the index is used).

        Because int order equals node-id string order, the sorted sequence
        visits predecessors in ``(dist[p], p)`` node-id string order.
        Parallel tuples (not pair tuples) so the search's inner loop
        indexes ints directly instead of unpacking.  The memo is per
        source and shared across calls.
        """
        rows = self._preds_memo.get(src_int)
        if rows is None:
            rows = [None] * self.n
            self._preds_memo[src_int] = rows
        dist = self.dist_from(src_int)
        preds = self.preds

        def lookup(current: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
            cached = rows[current]
            if cached is None:
                pairs = sorted(
                    (dist[p], p)
                    for p in preds[current]
                    if dist[p] >= 0
                )
                cached = (
                    tuple(d for d, _p in pairs) + (SENTINEL_DIST,),
                    tuple(p for _d, p in pairs),
                )
                rows[current] = cached
            return cached

        return lookup


def interner_for(graph: GrammarGraph) -> GraphInterner:
    """The graph's interner, built on first use and cached on the graph
    object (grammar graphs are immutable after construction)."""
    interner = getattr(graph, "_interner", None)
    if interner is None:
        interner = GraphInterner(graph)
        graph._interner = interner
    return interner
