"""Path-voted grammar graph (paper Sec. IV-A, Fig. 4(c)).

Labelling each grammar-graph edge with the candidate grammar paths that cover
it yields the *path-voted grammar graph*.  An edge "has more votes" when more
candidate paths cover it.  Two of the paper's mechanisms read this structure:

* **grammar-based pruning** (Sec. V-A) finds *conflict "or" edges* — two or
  more alternatives of the same choice non-terminal both voted for — and from
  their vote sets derives the *conflict path pairs* to prune;
* diagnostics/visualisation of a query's search space (used by the examples
  and by Table III's instrumentation).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.grammar.graph import GrammarGraph
from repro.grammar.interning import GraphInterner, IntPath
from repro.grammar.paths import GrammarPath

Edge = Tuple[str, str]


class PathVotedGraph:
    """Vote annotation of a grammar graph by a set of candidate paths."""

    def __init__(self, graph: GrammarGraph, paths: Iterable[GrammarPath]):
        self.graph = graph
        self._votes: Dict[Edge, Set[str]] = defaultdict(set)
        self._paths: Dict[str, GrammarPath] = {}
        for path in paths:
            self.add_path(path)

    def add_path(self, path: GrammarPath) -> None:
        self._paths[path.path_id] = path
        for edge in path.edges():
            self._votes[edge].add(path.path_id)

    # ------------------------------------------------------------------
    # Votes
    # ------------------------------------------------------------------

    def votes(self, src: str, dst: str) -> FrozenSet[str]:
        """Path ids covering edge ``src -> dst`` (empty if uncovered)."""
        return frozenset(self._votes.get((src, dst), ()))

    def vote_count(self, src: str, dst: str) -> int:
        return len(self._votes.get((src, dst), ()))

    def covered_edges(self) -> List[Edge]:
        return sorted(self._votes)

    def n_paths(self) -> int:
        return len(self._paths)

    # ------------------------------------------------------------------
    # Conflict analysis (feeds grammar-based pruning)
    # ------------------------------------------------------------------

    def voted_or_alternatives(self, nonterminal_id: str) -> List[Tuple[str, FrozenSet[str]]]:
        """Alternatives of a choice non-terminal that received votes, with
        the voting path ids."""
        out: List[Tuple[str, FrozenSet[str]]] = []
        for alt in self.graph.or_group(nonterminal_id):
            ids = self.votes(nonterminal_id, alt)
            if ids:
                out.append((alt, ids))
        return out

    def conflict_or_edges(self) -> List[Tuple[str, List[Tuple[str, FrozenSet[str]]]]]:
        """Choice non-terminals with two or more voted alternatives.

        Returns ``[(nonterminal_id, [(alt_id, voter_ids), ...]), ...]`` for
        every non-terminal whose mutually exclusive alternatives are both
        used by some candidate paths — the paper's *conflict "or" edges*.
        """
        conflicts = []
        groups = self.graph.or_group_map
        sources = {src for (src, _dst) in self._votes}
        for nt_id in sorted(sources & set(groups)):
            voted = self.voted_or_alternatives(nt_id)
            if len(voted) >= 2:
                conflicts.append((nt_id, voted))
        return conflicts

    def conflict_path_pairs(self) -> Set[FrozenSet[str]]:
        """All *conflict path pairs*: ``{p, q}`` such that merging paths
        ``p`` and ``q`` would select two alternatives of one choice rule.

        Pairs whose two members vote for the *same* alternative are not
        conflicts; pairs across different alternatives of the same
        non-terminal are.
        """
        pairs: Set[FrozenSet[str]] = set()
        for _nt, voted in self.conflict_or_edges():
            for i in range(len(voted)):
                for j in range(i + 1, len(voted)):
                    for p in voted[i][1]:
                        for q in voted[j][1]:
                            if p != q:
                                pairs.add(frozenset((p, q)))
        return pairs

    # ------------------------------------------------------------------
    # Rendering (examples / debugging)
    # ------------------------------------------------------------------

    def describe(self) -> str:
        lines = []
        for (src, dst), ids in sorted(self._votes.items()):
            src_l = self.graph.node(src).label
            dst_l = self.graph.node(dst).label
            lines.append(f"{src_l} -> {dst_l}  [{', '.join(sorted(ids))}]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Interned conflict analysis (the bitmask fast path)
# ---------------------------------------------------------------------------


def conflict_enc_pairs(
    interner: GraphInterner, encs: Iterable[IntPath]
) -> FrozenSet[FrozenSet[IntPath]]:
    """Conflict path pairs over int-encoded paths.

    The int-space equivalent of building a :class:`PathVotedGraph` over
    one canonical path per distinct node sequence and expanding its
    :meth:`conflict_path_pairs`: edge votes keyed by int edge code,
    voted alternatives read in the grammar's "or"-group order, pairs taken
    across different alternatives of one choice non-terminal.  Returns
    pairs of *encodings* — the stable, id-free identity the conflicts
    cache layer keys on.
    """
    votes: Dict[int, Set[IntPath]] = defaultdict(set)
    path_edges = interner.path_edges
    for enc in encs:
        for code in path_edges(enc):
            votes[code].add(enc)
    n = interner.n
    or_lists = interner.or_group_lists
    pairs: Set[FrozenSet[IntPath]] = set()
    for nt in {code // n for code in votes} & set(or_lists):
        base = nt * n
        voted: List[Set[IntPath]] = []
        for alt in or_lists[nt]:
            voters = votes.get(base + alt)
            if voters:
                voted.append(voters)
        for i in range(len(voted)):
            for j in range(i + 1, len(voted)):
                for p in voted[i]:
                    for q in voted[j]:
                        if p != q:
                            pairs.add(frozenset((p, q)))
    return frozenset(pairs)


def conflict_mask_records(
    encs: Sequence[IntPath],
    pairs: FrozenSet[FrozenSet[IntPath]],
) -> List[Tuple[int, int]]:
    """Per-path ``(bit, mask)`` records aligned with ``encs``.

    Each *distinct* encoding gets one bit; ``mask`` is the OR of the bits
    of every encoding it conflicts with.  A combination contains a
    conflict pair iff, scanning its members while accumulating bits, some
    member's mask intersects the bits accumulated so far — a few bitwise
    ANDs instead of O(n^2) pair probes.  Duplicate encodings share a bit
    and (pairs are over distinct encodings) never conflict with each
    other: two paths with identical node sequences vote for identical
    "or" alternatives.
    """
    bit_of: Dict[IntPath, int] = {}
    for enc in encs:
        if enc not in bit_of:
            bit_of[enc] = 1 << len(bit_of)
    mask_of: Dict[IntPath, int] = dict.fromkeys(bit_of, 0)
    for pair in pairs:
        enc_a, enc_b = tuple(pair)
        bit_a = bit_of.get(enc_a)
        bit_b = bit_of.get(enc_b)
        if bit_a is None or bit_b is None:
            continue
        mask_of[enc_a] |= bit_b
        mask_of[enc_b] |= bit_a
    return [(bit_of[enc], mask_of[enc]) for enc in encs]
