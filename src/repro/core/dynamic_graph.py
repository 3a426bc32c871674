"""The dynamic grammar graph (paper Sec. IV-B.1, Fig. 5).

Node kinds map one-to-one to the paper's:

* ``N_start`` — the single start node (we key it ``(VIRTUAL, <grammar start>)``);
* ``N_API`` — one node per (dependency word, candidate endpoint) pair.  The
  paper keys these by API name alone because its example has no collisions;
  keying by the dependency node too is the same structure, made safe for
  queries where two words map to the same API;
* ``N_PCGT`` — one node per surviving path combination of a sibling-edge
  group (the ellipses of Fig. 5).  A PCGT node is only ever read through
  its auxiliary edge to the combination's root API, so the table counts
  them (``n_pcgt_nodes``) and offers straight to that API node.

Every node carries the paper's two memo fields: ``min_size`` (size of the
optimal partial CGT from the start to this node) and ``min_cgt`` (the
partial CGT itself, stored as its grammar-graph edge set plus literal
bindings).  Updates keep the lexicographically smallest edge set among
equal-size options so DGGT's tie-breaking matches the baseline's.

Edge kinds (path edges carrying grammar-path ids, zero-length auxiliary
edges) exist implicitly in the offers; the explicit backtrack of
Algorithm 1's last line is trivial here because each node memoizes its
full optimal partial CGT.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import SynthesisError
from repro.grammar.interning import GraphInterner
from repro.synthesis.problem import CandidatePath, EndpointCandidate

Edge = Tuple[str, str]

#: Dependency-node id of the virtual governor (the paper's start node).
VIRTUAL = -1


class InternedDynamicGraph:
    """Flat-array memo table of the DGGT engine.

    A node key ``(dep id, grammar node)`` interns to a single int —
    ``(dep_id + 1) * n + node_int`` (``+1`` folds ``VIRTUAL == -1`` into
    slot 0) — mapping to a *slot* in parallel arrays:

    ``_size``/``_rank``   the memo's two objectives;
    ``_emask``/``_dmask``/``_onmask``
                          the optimal partial CGT in the interner's
                          bitmask algebra (edges / children / taken choice
                          non-terminals).  Edge unions are single bigint
                          ORs and validity checks are popcounts; the
                          final tie-break looks only at the edges the two
                          masks do not share (:meth:`offer`).
    ``_bind``             literal bindings keyed by interned node int.
                          Binding dicts are treated as immutable and
                          shared between slots when a merge adds nothing.

    PCGT nodes are *counted* (``n_pcgt_nodes``) but not stored: each one
    is unique to its combination, so it never participates in another
    offer — only its auxiliary edge to the root API does.
    """

    __slots__ = (
        "interner",
        "n",
        "_slot",
        "_size",
        "_rank",
        "_emask",
        "_dmask",
        "_onmask",
        "_bind",
        "n_pcgt_nodes",
    )

    def __init__(self, interner: GraphInterner):
        self.interner = interner
        self.n = interner.n
        self._slot: Dict[int, int] = {}
        self._size: List[int] = []
        self._rank: List[int] = []
        self._emask: List[int] = []
        self._dmask: List[int] = []
        self._onmask: List[int] = []
        self._bind: List[Dict[int, str]] = []
        self.n_pcgt_nodes = 0

    # ------------------------------------------------------------------
    # Accessors (tests / extraction; the engine reads the arrays directly)
    # ------------------------------------------------------------------

    def key_int(self, dep_id: int, node_int: int) -> int:
        return (dep_id + 1) * self.n + node_int

    def has(self, dep_id: int, node_int: int) -> bool:
        return (dep_id + 1) * self.n + node_int in self._slot

    def __len__(self) -> int:
        return len(self._slot)

    def optimal(
        self, dep_id: int, node_int: int
    ) -> Tuple[FrozenSet[Edge], Dict[str, str], int, int]:
        """(edges, bindings, min_size, min_rank) decoded back to grammar
        node-id strings — the backtrack of Algorithm 1 line 23."""
        slot = self._slot.get((dep_id + 1) * self.n + node_int)
        if slot is None:
            raise SynthesisError(
                f"no dynamic-graph node ({dep_id}, {node_int})"
            )
        interner = self.interner
        decode_edge = interner.decode_edge
        node_ids = interner.node_ids
        edges = frozenset(
            decode_edge(code)
            for code in interner.edge_codes_of_mask(self._emask[slot])
        )
        bindings = {
            node_ids[k]: v for k, v in self._bind[slot].items()
        }
        return edges, bindings, self._size[slot], self._rank[slot]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def offer(
        self,
        key_int: int,
        size: int,
        rank: int,
        emask: int,
        dmask: int,
        onmask: int,
        bindings: Dict[int, str],
    ) -> None:
        """Install (size, rank, partial CGT) at ``key_int`` if it beats
        the memo: smaller size, then smaller rank, then fewer edges, then
        the lexicographically smaller sorted edge set (int-code order ==
        string edge-pair order).  Edge counts come from popcounts.  Of two
        distinct edge sets of one size, the lexicographically smaller
        sorted tuple is the one holding the least code of their symmetric
        difference (every smaller code is in both or neither), so a full
        tie decodes only the differing edges."""
        slot = self._slot.get(key_int)
        if slot is None:
            self._slot[key_int] = len(self._size)
            self._size.append(size)
            self._rank.append(rank)
            self._emask.append(emask)
            self._dmask.append(dmask)
            self._onmask.append(onmask)
            self._bind.append(bindings)
            return
        cur_size = self._size[slot]
        if size > cur_size:
            return
        if size == cur_size:
            cur_rank = self._rank[slot]
            if rank > cur_rank:
                return
            if rank == cur_rank:
                cur_emask = self._emask[slot]
                if emask == cur_emask:
                    return
                n_new = emask.bit_count()
                n_cur = cur_emask.bit_count()
                if n_new > n_cur:
                    return
                if n_new == n_cur:
                    interner = self.interner
                    least = min(
                        interner.edge_codes_of_mask(emask ^ cur_emask)
                    )
                    if not (emask >> interner._edge_bit[least]) & 1:
                        return
        self._size[slot] = size
        self._rank[slot] = rank
        self._emask[slot] = emask
        self._dmask[slot] = dmask
        self._onmask[slot] = onmask
        self._bind[slot] = bindings

    def partial_valid(self, emask: int, dmask: int, onmask: int, root_int: int) -> bool:
        """Is a partial CGT a tree rooted at ``root_int`` with no "or"
        conflicts?  Joining a level's paths with memoized subtrees can
        violate this through *cross-level prefix overlap* (the pathology
        Sec. V-B discusses); rejecting the join lets the next-best option
        win instead of poisoning the memo.

        In the bitmask algebra: one parent per child (``|edges| ==
        |children|`` — any doubled child makes the edge count exceed the
        distinct-child count), the root is not a child, and at most one
        alternative per choice non-terminal (a second taken or-edge under
        one non-terminal raises the or-edge popcount above the taken
        non-terminal popcount)."""
        if not emask:
            return True
        if emask.bit_count() != dmask.bit_count():
            return False
        if (dmask >> root_int) & 1:
            return False
        om = emask & self.interner.or_edge_mask
        return om.bit_count() == onmask.bit_count()

    def add_leaf(self, dep_id: int, candidate: EndpointCandidate) -> None:
        """A leaf word's endpoint: size 1 for an API, 0 for a literal
        slot (the paper omits the fields of min_size-0 nodes in Fig. 5).
        An endpoint a query word resolved to always weighs 1 — only
        *unmentioned* interior generics are free.  Endpoints outside the
        grammar are skipped: they can never be a path's sink."""
        node_int = self.interner.index.get(candidate.node_id)
        if node_int is None:
            return
        size = 0 if candidate.is_literal else 1
        self.offer(
            (dep_id + 1) * self.n + node_int,
            size,
            candidate.rank,
            0,
            0,
            0,
            _EMPTY_BINDINGS,
        )

    def offer_path(
        self,
        gov_dep_id: int,
        cp: CandidatePath,
        enc: Tuple[int, ...],
        pred_slot: int,
    ) -> None:
        """Case I (Algorithm 1 lines 5-11): extend the predecessor slot's
        optimal partial CGT with one grammar path (no update on a
        literal-binding conflict or an invalid join)."""
        interner = self.interner
        size = interner.size_of_enc(enc) + self._size[pred_slot]
        rank = cp.src_candidate.rank + self._rank[pred_slot]
        em, _nm, dm, onm, _all = interner.enc_masks(enc)
        em |= self._emask[pred_slot]
        dm |= self._dmask[pred_slot]
        onm |= self._onmask[pred_slot]

        pred_bind = self._bind[pred_slot]
        bound = cp.binding()
        if bound is None:
            bindings = pred_bind
        else:
            lit_int = interner.index[bound[0]]
            existing = pred_bind.get(lit_int)
            if existing is None:
                bindings = dict(pred_bind)
                bindings[lit_int] = bound[1]
            elif existing != bound[1]:
                return
            else:
                bindings = pred_bind
        if not self.partial_valid(em, dm, onm, enc[0]):
            return
        self.offer(
            (gov_dep_id + 1) * self.n + enc[0],
            size,
            rank,
            em,
            dm,
            onm,
            bindings,
        )

    def add_pcgt(
        self,
        gov_dep_id: int,
        gov_int: int,
        path_masks: Tuple[int, int, int],
        combo_paths: Sequence[CandidatePath],
        pred_slots: Sequence[int],
        tree_cost: int,
        gov_rank: int,
    ) -> bool:
        """Case II (Algorithm 1 lines 13-22): one surviving combination
        joined with its memoized subtrees, offered along the auxiliary
        edge to the root API.  ``path_masks`` is the combination's
        already-folded ``(em, dm, onm)`` — the caller has the per-path
        masks in hand from its merge-validity check, so refolding here
        would be pure waste.  Returns False (no node) on a binding
        conflict or an invalid join."""
        interner = self.interner
        em, dm, onm = path_masks
        bindings: Dict[int, str] = {}
        for cp in combo_paths:
            bound = cp.binding()
            if bound is not None:
                lit_int = interner.index[bound[0]]
                existing = bindings.get(lit_int)
                if existing is not None and existing != bound[1]:
                    return False
                bindings[lit_int] = bound[1]
        total = tree_cost
        total_rank = gov_rank
        for pred_slot in pred_slots:
            total += self._size[pred_slot]
            total_rank += self._rank[pred_slot]
            em |= self._emask[pred_slot]
            dm |= self._dmask[pred_slot]
            onm |= self._onmask[pred_slot]
            for lit_int, value in self._bind[pred_slot].items():
                existing = bindings.get(lit_int)
                if existing is not None and existing != value:
                    return False
                bindings[lit_int] = value

        if not self.partial_valid(em, dm, onm, gov_int):
            return False
        self.n_pcgt_nodes += 1
        self.offer(
            (gov_dep_id + 1) * self.n + gov_int,
            total,
            total_rank,
            em,
            dm,
            onm,
            bindings,
        )
        return True


#: Shared empty-bindings dict for leaves.  Binding dicts are immutable by
#: convention (merges always copy), so sharing one instance is safe.
_EMPTY_BINDINGS: Dict[int, str] = {}
