"""Exhaustive path-combination enumeration (HISyn's Step-5 core).

HISyn "enumerates every combination of the grammar paths of all the edges in
the pruned dependency graph.  For each combination, it tries to merge the
grammar paths to form a tree" (Sec. II).  This module implements that loop,
kept deliberately faithful to its published complexity ``O(∏_l p_l^{e_l})``:
each combination is merged and validity-checked from scratch, repeating work
across overlapping combinations — the redundancy DGGT's memoization removes
(Sec. III-B, insight i).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.cgt import CGT, merge_bindings
from repro.grammar.graph import GrammarGraph
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import CandidatePath
from repro.synthesis.result import SynthesisStats

#: How often (in combinations) the enumeration polls the deadline.
_DEADLINE_STRIDE = 64


def iter_combinations(
    edge_paths: Sequence[Sequence[CandidatePath]],
) -> Iterator[Tuple[CandidatePath, ...]]:
    """Odometer-style cartesian product, deterministic order, lazily."""
    if any(not paths for paths in edge_paths):
        return
    indices = [0] * len(edge_paths)
    while True:
        yield tuple(paths[i] for paths, i in zip(edge_paths, indices))
        # advance odometer
        pos = len(indices) - 1
        while pos >= 0:
            indices[pos] += 1
            if indices[pos] < len(edge_paths[pos]):
                break
            indices[pos] = 0
            pos -= 1
        if pos < 0:
            return


def resolve_endpoints(
    combo: Sequence[CandidatePath],
    edge_nodes: Sequence[Tuple[Optional[int], Optional[int]]],
):
    """Resolve each dependency node to one grammar endpoint across all the
    edges that touch it (a word means one API in one codelet); ``None`` on
    disagreement.

    ``edge_nodes[i]`` gives the (governor, dependent) dependency-node ids of
    the i-th edge (None for the virtual grammar-start governor).
    """
    resolved: Dict[int, object] = {}
    for cp, (gov, dep) in zip(combo, edge_nodes):
        for node, cand in ((gov, cp.src_candidate), (dep, cp.dst_candidate)):
            if node is None:
                continue
            seen = resolved.get(node)
            if seen is None:
                resolved[node] = cand
            elif seen.node_id != cand.node_id:
                return None
    return resolved


def merge_combination(combo: Sequence[CandidatePath]) -> Optional[CGT]:
    """Fuse one combination's paths into a (possibly invalid) CGT.

    Returns ``None`` when two paths bind different literals to the same
    grammar slot — such a combination cannot represent the query.
    """
    bindings: Dict[str, str] = {}
    for cp in combo:
        bound = cp.binding()
        if bound is None:
            continue
        merged = merge_bindings(bindings, {bound[0]: bound[1]})
        if merged is None:
            return None
        bindings = merged
    return CGT.from_paths((cp.path for cp in combo), bindings)


def enumerate_best_cgt(
    edge_paths: Sequence[Sequence[CandidatePath]],
    edge_nodes: Sequence[Tuple[Optional[int], Optional[int]]],
    graph: GrammarGraph,
    deadline: Deadline,
    stats: SynthesisStats,
) -> Optional[CGT]:
    """The exhaustive Step-5: merge every combination, keep the smallest
    valid CGT.

    Ties in CGT size are broken by the summed Step-3 rank of the resolved
    endpoints (better-matching APIs win), then by the canonical edge list —
    the same objective DGGT optimizes, so the engines agree.
    """
    best: Optional[CGT] = None
    best_key = None
    seen = 0
    for combo in iter_combinations(edge_paths):
        seen += 1
        stats.n_combinations += 1
        if seen == 1 or seen % _DEADLINE_STRIDE == 0:
            deadline.check()
        resolved = resolve_endpoints(combo, edge_nodes)
        if resolved is None:
            continue
        stats.n_merged += 1
        cgt = merge_combination(combo)
        if cgt is None or not cgt.is_grammar_valid(graph):
            continue
        stats.n_valid_cgts += 1
        rank_sum = sum(c.rank for c in resolved.values())
        size, n_edges, edge_key = cgt.sort_key(graph)
        # Endpoints a query word resolved to always weigh 1; weighted_size
        # gave generic-API endpoints 0, so add the difference back (same
        # accounting as the dynamic grammar graph's).
        size += sum(
            1
            for c in resolved.values()
            if not c.is_literal and graph.api_weight(c.node_id) == 0
        )
        key = (size, rank_sum, n_edges, edge_key)
        if best_key is None or key < best_key:
            best, best_key = cgt, key
    return best
