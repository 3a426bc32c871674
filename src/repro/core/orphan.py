"""Orphan node relocation (paper Sec. V-B).

An *orphan* is a dependent whose dependency edge has no candidate grammar
path — "it implies that n_i is not the 'real' governor of n_j".  Instead of
HISyn's root-attachment (all paths from the grammar start: expensive and a
source of cross-level prefixes that break DGGT's optimality assumption),
relocation consults the grammar graph: if some other word's candidate API is
a grammar-graph *ancestor* of the orphan's candidate API, that word is a
plausible governor, and the orphan is re-attached beneath it.

"Since an orphan node could have several candidate APIs, there could be many
valid locations ... the algorithm creates different pruned dependency graphs
and synthesizes them separately.  The smallest CGT is chosen from all these
pruned dependency graphs" — hence :func:`relocation_variants` returns a list
of problems and the engine keeps the best result.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Tuple

from repro.synthesis.problem import SynthesisProblem

#: Dependency relation label for relocated edges.
RELOCATED_REL = "reloc"


def candidate_governors(
    problem: SynthesisProblem, orphan: int
) -> List[int]:
    """Dependency nodes whose candidate APIs are grammar-graph ancestors of
    some candidate of the orphan.  Ordered root-ward first (shallowest
    depth), then by node id, for determinism."""
    reaches = problem.cache.interner.reaches
    dep = problem.dep_graph
    orphan_targets = [c.node_id for c in problem.candidates.get(orphan, ())]
    excluded = dep.descendants(orphan) | {orphan}
    found: List[int] = []
    for node in dep.nodes():
        nid = node.node_id
        if nid in excluded:
            continue
        for gov_cand in problem.candidates.get(nid, ()):
            if gov_cand.is_literal:
                continue
            if any(reaches(gov_cand.node_id, t) for t in orphan_targets):
                found.append(nid)
                break
    found.sort(key=lambda n: (dep.depth(n), n))
    return found


def relocation_variants(
    problem: SynthesisProblem,
    max_variants: int = 16,
) -> Tuple[List[SynthesisProblem], int]:
    """Build the dependency-graph variants produced by orphan relocation.

    Returns ``(variants, n_orphans)``.  Orphans with no plausible governor
    keep their broken edge (the engine falls back to root-attachment for
    them).  Without orphans the original problem is returned unchanged.
    """
    orphans = problem.orphan_nodes()
    if not orphans:
        return [problem], 0

    choice_lists: List[List[Optional[int]]] = []
    for orphan in orphans:
        governors = candidate_governors(problem, orphan)
        choice_lists.append([g for g in governors] or [None])

    variants: List[SynthesisProblem] = []
    for assignment in product(*choice_lists):
        if len(variants) >= max_variants:
            break
        new_graph = problem.dep_graph.copy()
        ok = True
        for orphan, governor in zip(orphans, assignment):
            if governor is None:
                continue  # unplaceable: engine root-attaches it
            try:
                new_graph.reattach(orphan, governor, RELOCATED_REL)
            except Exception:
                ok = False  # e.g. relocation would create a cycle
                break
        if ok:
            variants.append(problem.with_dep_graph(new_graph))
    if not variants:
        variants = [problem]
    return variants, len(orphans)
