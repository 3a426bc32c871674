"""Synthesis problem construction: the shared front end (Steps 1-4).

Both engines consume the same :class:`SynthesisProblem`:

* the **pruned dependency graph** (Steps 1-2),
* per-node **endpoint candidates** — grammar-graph node ids each query word
  may resolve to (Step-3 WordToAPI for words; the domain's literal slots for
  quoted strings and numerals),
* the **EdgeToPath map** — candidate grammar paths per dependency edge, found
  by the reversed all-path search (Step-4), with the paper's ``<edge>.<k>``
  ids assigned,
* **root paths** from the grammar start symbol down to the root word's
  candidates (the virtual level-1 edge of the paper's Fig. 3), and
* the detected **orphan nodes** — dependents of edges with zero candidate
  paths, whose treatment is where the engines differ (Sec. V-B).
"""

from __future__ import annotations

from dataclasses import field
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.compat import slotted_dataclass
from repro.grammar.graph import GrammarGraph, api_id
from repro.grammar.interning import IntPath
from repro.grammar.path_cache import PairPaths, PathCache
from repro.grammar.paths import (
    GrammarPath,
    PathCatalog,
    PathSearchLimits,
)
from repro.nlp.dependency import DepEdge, DependencyGraph
from repro.nlu.word2api import build_word_to_api_map
from repro.synthesis.domain import Domain

EdgeKey = Tuple[int, int]


@slotted_dataclass(frozen=True)
class EndpointCandidate:
    """One grammar-graph endpoint a dependency node may resolve to.

    ``rank`` is the candidate's position in the Step-3 ranking (0 = best
    match).  Both engines use the summed rank of the chosen endpoints as a
    secondary objective after CGT size, so that among equally small trees
    the better-matching APIs win.  Slotted: one is allocated per
    (word, endpoint) pair of every query.
    """

    node_id: str  # "api:NAME" or "lit:slot"
    api_name: Optional[str] = None  # None for literal slots
    value: Optional[str] = None  # bound literal value (literal nodes only)
    rank: int = 0

    @property
    def is_literal(self) -> bool:
        return self.api_name is None


@slotted_dataclass(frozen=True)
class CandidatePath:
    """A grammar path serving one dependency edge, with its endpoints'
    dependency-side interpretation.  Slotted: the engines allocate these
    per (edge, governor candidate, dependent candidate, path).

    ``enc`` is the path's interned encoding, which the DGGT engine works
    on, and ``size`` its ``GrammarPath.size`` as the path search returned
    it; :class:`SynthesisProblem` fills both.  They are derived from
    ``path``, so they take no part in equality."""

    path: GrammarPath
    src_candidate: EndpointCandidate  # governor side (or grammar start)
    dst_candidate: EndpointCandidate  # dependent side
    enc: IntPath = field(default=(), compare=False, repr=False)
    size: int = field(default=0, compare=False, repr=False)

    @property
    def path_id(self) -> str:
        return self.path.path_id

    @property
    def src(self) -> str:
        return self.path.src

    @property
    def dst(self) -> str:
        return self.path.dst

    def binding(self) -> Optional[Tuple[str, str]]:
        """(grammar literal node id, value) when the sink is a bound literal."""
        c = self.dst_candidate
        if c.is_literal and c.value is not None:
            return (c.node_id, c.value)
        return None


#: Sentinel endpoint for the grammar start symbol (virtual governor of the
#: dependency root).
def start_candidate(graph: GrammarGraph) -> EndpointCandidate:
    return EndpointCandidate(node_id=graph.start_id, api_name=None, value=None)


#: One edge's candidate paths grouped by endpoint pair, each group
#: lightest first (size, then catalog order) — the order the DGGT
#: engine's Case I walks.
PairGroups = Tuple[Tuple[CandidatePath, ...], ...]

#: An endpoint pair that may not be searched (both ends one node).
_NO_PATHS: PairPaths = ((), ())


class SynthesisProblem:
    """All per-query inputs either engine needs."""

    def __init__(
        self,
        domain: Domain,
        dep_graph: DependencyGraph,
        candidates: Mapping[int, List[EndpointCandidate]],
        limits: Optional[PathSearchLimits] = None,
        deadline=None,
        cache: Optional[PathCache] = None,
    ):
        self.domain = domain
        # The domain cache, bound once (or handed over by the problem
        # this one varies): a hot cache reload swaps ``domain.path_cache``,
        # and a request already under way finishes against the cache it
        # started with, as ``Domain.reload_cache`` promises.
        self.cache = cache if cache is not None else domain.path_cache
        self.dep_graph = dep_graph
        self.candidates: Dict[int, List[EndpointCandidate]] = {
            k: list(v) for k, v in candidates.items()
        }
        self.limits = limits or domain.path_limits
        self.deadline = deadline
        #: Dependency edges numbered so far (the paper's ``<edge>``).
        self.n_edges = 0
        self.edge_paths: Dict[EdgeKey, List[CandidatePath]] = {}
        self.edge_groups: Dict[EdgeKey, PairGroups] = {}
        self.root_paths: List[CandidatePath] = []
        self.root_groups: PairGroups = ()
        self._compute_all_paths()

    # ------------------------------------------------------------------
    # Path computation (Step-4)
    # ------------------------------------------------------------------

    def _raw_paths(
        self,
        src: EndpointCandidate,
        dst: EndpointCandidate,
    ) -> PairPaths:
        if src.node_id == dst.node_id:
            # Two query words may not collapse onto one API occurrence: a
            # dependency edge must correspond to a non-trivial grammar
            # relation.
            return _NO_PATHS
        on_miss = self.deadline.check if self.deadline is not None else None
        return self.cache.find_paths(
            src.node_id, dst.node_id, self.limits, on_miss=on_miss
        )

    def _register(
        self, pairs: List[Tuple[EndpointCandidate, EndpointCandidate]]
    ) -> Tuple[List[CandidatePath], PairGroups]:
        """The candidate paths of one edge — every endpoint pair's paths
        in discovery order, capped at the ``max_paths_per_edge`` lightest
        (weighted size, then length; stable on discovery order), with ids
        from :meth:`PathCatalog.label` — and the same paths grouped by
        pair, each group lightest first."""
        # Which paths survive the cap, and their labels, depend only on
        # the endpoint node ids and the edge's number, so literal
        # variants of one query share them, and a memo hit needs no
        # pair's paths.
        self.n_edges += 1
        edge = self.n_edges
        key = (
            tuple((src.node_id, dst.node_id) for src, dst in pairs),
            self.limits.cache_key(),
            edge,
        )
        labeled, encs, sizes, owners, lightest = (
            self.cache.edges.get_or_compute(
                key,
                lambda: self._select(
                    [self._raw_paths(src, dst) for src, dst in pairs], edge
                ),
            )
        )
        cands = [
            CandidatePath(lp, *pairs[k], enc, size)
            for lp, enc, size, k in zip(labeled, encs, sizes, owners)
        ]
        pick = cands.__getitem__
        return cands, tuple(tuple(map(pick, order)) for order in lightest)

    def _select(
        self, raws: List[PairPaths], edge: int
    ) -> Tuple[
        Tuple[GrammarPath, ...],
        Tuple[IntPath, ...],
        Tuple[int, ...],
        Tuple[int, ...],
        Tuple[Tuple[int, ...], ...],
    ]:
        """One edge whose pairs found ``raws``: (its kept paths labeled
        for edge ``edge``, their encodings, their sizes, the owning pair
        index of each, and per pair with kept paths the indices of its
        paths lightest first).  Only kept paths are decoded."""
        kept = [
            (size, len(enc), k, j)
            for k, (encs, sizes) in enumerate(raws)
            for j, (enc, size) in enumerate(zip(encs, sizes))
        ]
        cap = self.limits.max_paths_per_edge
        if len(kept) > cap:
            kept.sort()
            kept = sorted(kept[:cap], key=itemgetter(2, 3))  # discovery order
        decode = self.cache.interner.decode_nodes
        encs = tuple(raws[k][0][j] for _size, _len, k, j in kept)
        labeled = tuple(PathCatalog.label(edge, map(decode, encs)))
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for i, (size, _len, k, _j) in enumerate(kept):
            groups.setdefault(k, []).append((size, i))
        lightest = tuple(
            tuple(i for _size, i in sorted(group))
            for group in groups.values()
        )
        return (
            labeled,
            encs,
            tuple(size for size, _l, _k, _j in kept),
            tuple(k for _s, _l, k, _j in kept),
            lightest,
        )

    def _edge_candidates(
        self, edge: DepEdge
    ) -> Tuple[List[CandidatePath], PairGroups]:
        """Candidate paths for one dependency edge (every governor candidate
        x every dependent candidate), labeled with the edge's number."""
        return self._register([
            (src, dst)
            for src in self.candidates.get(edge.gov, ())
            if not src.is_literal  # a literal can never govern
            for dst in self.candidates.get(edge.dep, ())
        ])

    def _compute_all_paths(self) -> None:
        # Virtual root edge first (the paper's edge "1").
        self.root_paths, self.root_groups = self._start_attach(
            self.dep_graph.root
        )
        for edge in self.dep_graph.edges():
            key = (edge.gov, edge.dep)
            self.edge_paths[key], self.edge_groups[key] = (
                self._edge_candidates(edge)
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def paths_of(self, edge: DepEdge) -> List[CandidatePath]:
        return list(self.edge_paths.get((edge.gov, edge.dep), ()))

    def groups_of(self, edge: DepEdge) -> PairGroups:
        """``edge``'s candidate paths per endpoint pair, lightest first."""
        return self.edge_groups.get((edge.gov, edge.dep), ())

    def start_attach_paths(self, node_id: int) -> List[CandidatePath]:
        """All grammar paths from the start symbol down to a node's
        candidates — the expensive treatment HISyn gives orphans, also the
        fallback for orphans relocation cannot place (Sec. V-B)."""
        return self._start_attach(node_id)[0]

    def start_attach_count(self, node_id: int) -> int:
        """``len(self.start_attach_paths(node_id))``, without building
        the paths or numbering an edge for them: the per-edge cap keeps
        the ``max_paths_per_edge`` lightest of the pairs' paths."""
        start = start_candidate(self.domain.graph)
        found = sum(
            len(self._raw_paths(start, dst)[0])
            for dst in self.candidates.get(node_id, ())
        )
        return min(found, self.limits.max_paths_per_edge)

    def _start_attach(
        self, node_id: int
    ) -> Tuple[List[CandidatePath], PairGroups]:
        start = start_candidate(self.domain.graph)
        return self._register(
            [(start, dst) for dst in self.candidates.get(node_id, ())]
        )

    def orphan_nodes(self) -> List[int]:
        """Dependents of edges with no candidate grammar path (Sec. V-B):
        the governor is "not the real governor" of these nodes."""
        return sorted(
            dep
            for (gov, dep), paths in self.edge_paths.items()
            if not paths
        )

    def total_paths(self) -> int:
        return len(self.root_paths) + sum(
            len(v) for v in self.edge_paths.values()
        )

    def with_dep_graph(self, new_graph: DependencyGraph) -> "SynthesisProblem":
        """Rebuild the problem over a modified dependency graph (used by
        orphan node relocation); candidates carry over by node id."""
        kept = {
            n.node_id: self.candidates.get(n.node_id, [])
            for n in new_graph.nodes()
        }
        return SynthesisProblem(
            self.domain,
            new_graph,
            kept,
            self.limits,
            self.deadline,
            cache=self.cache,
        )


# ----------------------------------------------------------------------
# Front-end builder
# ----------------------------------------------------------------------


def _token_kind(pos: str) -> Optional[str]:
    if pos == "QUOTE":
        return "quoted"
    if pos == "CD":
        return "number"
    return None


def build_candidates(
    domain: Domain, dep_graph: DependencyGraph
) -> Dict[int, List[EndpointCandidate]]:
    """Step-3: endpoint candidates per pruned-graph node."""
    word_map = build_word_to_api_map(dep_graph, domain.matcher)
    out: Dict[int, List[EndpointCandidate]] = {}
    for node in dep_graph.nodes():
        if node.is_literal or node.pos == "CD":
            kind = _token_kind(node.pos) or "quoted"
            value = node.literal if node.literal is not None else node.word
            out[node.node_id] = [
                EndpointCandidate(
                    node_id=t, api_name=None, value=value, rank=rank
                )
                for rank, t in enumerate(domain.literal_target_ids(kind))
            ]
            continue
        entries = word_map.get(node.node_id, [])
        if domain.candidate_reranker is not None:
            entries = domain.candidate_reranker(node, dep_graph, entries)
        out[node.node_id] = [
            EndpointCandidate(
                node_id=api_id(c.name), api_name=c.name, value=None, rank=rank
            )
            for rank, c in enumerate(entries)
            if domain.graph.has_api(c.name)
        ]
    return out


def drop_candidateless(
    dep_graph: DependencyGraph,
    candidates: Mapping[int, List[EndpointCandidate]],
) -> DependencyGraph:
    """Candidate-aware prune: words matching no API are non-essential.

    Nodes with an empty candidate list are spliced out (children move to the
    governor).  If the *root* has no candidates it is replaced by its first
    child that does — mirroring how generic command verbs disappear in code
    search queries ("find ..." contributes no API).
    """
    pruned = dep_graph.copy()
    changed = True
    while changed:
        changed = False
        for node in pruned.nodes():
            if node.node_id == pruned.root:
                continue
            if not candidates.get(node.node_id):
                pruned.remove_node(node.node_id)
                changed = True
                break
    if not candidates.get(pruned.root):
        children = pruned.children(pruned.root)
        promotable = [e.dep for e in children if candidates.get(e.dep)]
        if promotable:
            promoted = promotable[0]
            edges = []
            for edge in pruned.edges():
                if edge.gov == pruned.root and edge.dep == promoted:
                    continue
                if edge.gov == pruned.root:
                    edges.append(DepEdge(promoted, edge.dep, edge.rel))
                else:
                    edges.append(edge)
            nodes = [n for n in pruned.nodes() if n.node_id != pruned.root]
            pruned = DependencyGraph(nodes, edges, promoted)
    return pruned


def build_problem(
    domain: Domain,
    query: str,
    deadline=None,
) -> SynthesisProblem:
    """Run Steps 1-4 and return the engine-ready problem.

    ``deadline`` (a :class:`~repro.synthesis.deadline.Deadline`) bounds the
    path search — Step-4 can be expensive in recursive grammars.

    The stage implementations live in :mod:`repro.synthesis.stages`
    (``parse`` / ``prune`` / ``word_to_api`` / ``edge_to_path``); this
    wrapper runs them with a minimal, trace-free context.  Imported
    lazily: stages.py needs :class:`SynthesisProblem` from this module.
    """
    from repro.synthesis.deadline import Deadline
    from repro.synthesis.stages import SynthesisContext, run_front_end

    ctx = SynthesisContext(
        query=query,
        domain=domain,
        deadline=deadline if deadline is not None else Deadline.unlimited(),
    )
    return run_front_end(ctx)
