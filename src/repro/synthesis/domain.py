"""Domain registration: everything an NLU-driven synthesizer needs to know
about one target DSL.

Per the paper (Sec. II) a domain supplies (ii) the API document and (iii) the
BNF grammar; this class bundles them with the derived grammar graph, the
lexical knowledge table, and the pruning/matching policies.  The NLU-driven
selling point — "when the APIs in the target domain change, it needs only
the incorporation of the updated document" — is exactly this object: build a
new :class:`Domain` from the updated BNF + document and nothing retrains
(see ``examples/build_your_own_domain.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CacheSnapshotError, DomainError
from repro.grammar.bnf import parse_bnf
from repro.grammar.cfg import Grammar
from repro.grammar.graph import GrammarGraph, literal_id
from repro.grammar.path_cache import (
    PathCache,
    default_cache_dir,
    grammar_fingerprint,
    load_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.grammar.paths import PathSearchLimits
from repro.nlp.pruning import PruneConfig
from repro.nlu.docs import ApiDoc, ApiDocument
from repro.nlu.synonyms import SynonymTable, default_synonyms
from repro.nlu.word2api import MatchConfig, WordToApiMatcher


@dataclass
class Domain:
    """One registered target DSL.

    Attributes
    ----------
    literal_targets:
        Token kind ("quoted" / "number") -> names of the grammar's literal
        terminals a literal of that kind may bind to.  Literal terminals are
        the grammar terminals that are *not* APIs (slots such as ``str_val``).
    """

    name: str
    grammar: Grammar
    graph: GrammarGraph
    document: ApiDocument
    synonyms: SynonymTable
    prune_config: PruneConfig
    literal_targets: Mapping[str, Tuple[str, ...]]
    match_config: MatchConfig = field(default_factory=MatchConfig)
    description: str = ""
    path_limits: PathSearchLimits = field(default_factory=PathSearchLimits)
    #: Optional syntax-aware candidate reranker: called per pruned-graph
    #: node as ``reranker(node, dep_graph, candidates) -> candidates``.
    #: Lets a domain fold linguistic context into Step-3 rankings (e.g. a
    #: noun governed by an ordinal is a token, a noun in a locative PP is a
    #: scope).  Must reorder, never add or drop.
    candidate_reranker: Optional[object] = None
    #: Per-domain LRU capacity overrides for the PathCache layers, keyed
    #: "paths"/"conflicts"/"sizes"/"merge"/"outcomes".  Missing layers use
    #: the library defaults (see
    #: :func:`repro.grammar.path_cache.resolve_capacities`).
    cache_capacities: Mapping[str, int] = field(default_factory=dict)
    #: Where this domain came from.  Built-in Python domains leave it
    #: empty; pack-loaded domains record ``pack`` / ``version`` /
    #: ``source`` (the pack directory) / ``content_hash``.  Surfaced by
    #: :meth:`stats`, ``repro domains`` and the server's ``GET /domains``.
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._matcher: Optional[WordToApiMatcher] = None
        self._path_cache: Optional[PathCache] = None
        self._hashed: Optional[Tuple[GrammarGraph, str]] = None
        literal_terminals = self.literal_terminals()
        for kind, targets in self.literal_targets.items():
            unknown = set(targets) - literal_terminals
            if unknown:
                raise DomainError(
                    f"literal_targets[{kind}] not literal terminals: "
                    f"{sorted(unknown)}"
                )

    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        bnf_source: str,
        api_docs: Iterable[ApiDoc],
        *,
        synonyms: Optional[SynonymTable] = None,
        prune_config: Optional[PruneConfig] = None,
        literal_targets: Optional[Mapping[str, Sequence[str]]] = None,
        match_config: Optional[MatchConfig] = None,
        description: str = "",
        path_limits: Optional[PathSearchLimits] = None,
        generic_apis: Optional[Iterable[str]] = None,
        candidate_reranker=None,
        cache_capacities: Optional[Mapping[str, int]] = None,
        start: Optional[str] = None,
        provenance: Optional[Mapping[str, str]] = None,
    ) -> "Domain":
        """Build a domain from BNF text and an API document.

        APIs are the grammar terminals present in the document; every
        remaining terminal is a literal slot.  The document must cover
        exactly the API terminals (validated here).
        """
        grammar = parse_bnf(bnf_source, start=start)
        document = ApiDocument(api_docs)
        api_names = set(document.names())
        missing = api_names - grammar.terminals
        if missing:
            raise DomainError(
                f"document describes APIs absent from the grammar: "
                f"{sorted(missing)[:8]}"
            )
        graph = GrammarGraph(grammar, api_names=api_names, generic_apis=generic_apis)
        resolved_targets: Dict[str, Tuple[str, ...]] = {}
        if literal_targets:
            resolved_targets = {
                kind: tuple(vals) for kind, vals in literal_targets.items()
            }
        else:
            # Default: any literal slot accepts any literal token.
            slots = tuple(sorted(grammar.terminals - api_names))
            resolved_targets = {"quoted": slots, "number": slots}
        return cls(
            name=name,
            grammar=grammar,
            graph=graph,
            document=document,
            synonyms=synonyms or default_synonyms(),
            prune_config=prune_config or PruneConfig(),
            literal_targets=resolved_targets,
            match_config=match_config or MatchConfig(),
            description=description,
            path_limits=path_limits or PathSearchLimits(),
            candidate_reranker=candidate_reranker,
            cache_capacities=dict(cache_capacities or {}),
            provenance=dict(provenance or {}),
        )

    # ------------------------------------------------------------------

    @property
    def api_names(self) -> List[str]:
        return self.document.names()

    def literal_terminals(self) -> FrozenSet[str]:
        return frozenset(self.grammar.terminals - set(self.document.names()))

    @property
    def path_cache(self) -> PathCache:
        """The domain's cross-query cache (paths, conflicts, sizes, merge
        results, outcomes — see :mod:`repro.grammar.path_cache`).

        Lazily built and automatically discarded when ``self.graph`` is
        replaced: cached results are pure functions of the graph object
        they were computed against, so a new graph means a new cache.
        """
        cache = self._path_cache
        if cache is None or cache.graph is not self.graph:
            caps = self.cache_capacities or {}
            cache = PathCache(
                self.graph,
                max_path_entries=caps.get("paths"),
                max_conflict_entries=caps.get("conflicts"),
                max_size_entries=caps.get("sizes"),
                max_merge_entries=caps.get("merge"),
                max_outcome_entries=caps.get("outcomes"),
            )
            self._path_cache = cache
        return cache

    def invalidate_caches(self) -> None:
        """Explicitly drop every cached path/conflict/size/merge/outcome
        entry (e.g. after mutating the grammar in place)."""
        if self._path_cache is not None:
            self._path_cache.clear()

    # ------------------------------------------------------------------
    # Persistent cache snapshots (see repro.grammar.path_cache)
    # ------------------------------------------------------------------

    def grammar_hash(self) -> str:
        """Content hash of the grammar graph — the snapshot freshness key.

        Computed once per graph object: a grammar graph is immutable (a
        pack reload builds a new ``Domain``), and hashing ASTMatcher's
        takes tens of milliseconds, which ``GET /healthz`` would
        otherwise pay on every call."""
        hashed = self._hashed
        if hashed is None or hashed[0] is not self.graph:
            hashed = (self.graph, grammar_fingerprint(self.graph))
            self._hashed = hashed
        return hashed[1]

    def cache_file(self, cache_dir: Union[str, Path, None] = None) -> Path:
        """Where this domain's snapshot lives under ``cache_dir`` (default:
        ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-dggt``).  The grammar hash
        is part of the file name, so a grammar change writes a new file."""
        base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        return snapshot_path(base, self.name, self.grammar_hash())

    def save_cache(self, cache_dir: Union[str, Path, None] = None) -> Path:
        """Atomically persist the grammar-pure PathCache layers; returns
        the snapshot path.  Typically run after warming the cache over a
        representative query set (CLI: ``repro cache warm``)."""
        target = self.cache_file(cache_dir)
        return write_snapshot(self.path_cache, target, self.name)

    def load_cache(
        self,
        cache_dir: Union[str, Path, None] = None,
        *,
        strict: bool = False,
    ) -> bool:
        """Preload the PathCache from this domain's snapshot, if present.

        Returns True when a snapshot was loaded.  A missing, stale
        (grammar-hash mismatch), or corrupt snapshot returns False — cold
        start is always a safe fallback — unless ``strict`` is set, in
        which case those failures raise
        :class:`~repro.errors.CacheSnapshotError` (missing files included).
        """
        target = self.cache_file(cache_dir)
        try:
            load_snapshot(self.path_cache, target, domain_name=self.name)
        except CacheSnapshotError:
            if strict:
                raise
            return False
        return True

    def reload_cache(
        self,
        cache_dir: Union[str, Path, None] = None,
        *,
        strict: bool = False,
    ) -> bool:
        """Hot-swap the PathCache from a freshly read snapshot.

        Unlike :meth:`load_cache` (which merges into the live cache), this
        builds a *new* cache, loads the snapshot into it, and atomically
        swaps the reference — so a long-running server adopts a
        regenerated snapshot exactly, while requests already holding the
        old cache object finish against it undisturbed.  On a missing,
        stale, or corrupt snapshot the live cache is left untouched and
        False is returned (or :class:`~repro.errors.CacheSnapshotError`
        is raised under ``strict``).  Cumulative hit/miss counters and
        the (non-persisted) outcome layer restart empty.
        """
        caps = self.cache_capacities or {}
        fresh = PathCache(
            self.graph,
            max_path_entries=caps.get("paths"),
            max_conflict_entries=caps.get("conflicts"),
            max_size_entries=caps.get("sizes"),
            max_merge_entries=caps.get("merge"),
            max_outcome_entries=caps.get("outcomes"),
        )
        target = self.cache_file(cache_dir)
        try:
            load_snapshot(fresh, target, domain_name=self.name)
        except CacheSnapshotError:
            if strict:
                raise
            return False
        self._path_cache = fresh
        return True

    @property
    def matcher(self) -> WordToApiMatcher:
        if self._matcher is None:
            self._matcher = WordToApiMatcher(
                self.document, self.synonyms, self.match_config
            )
        return self._matcher

    def literal_target_ids(self, kind: str) -> List[str]:
        """Grammar-graph node ids a literal token of ``kind`` may bind to."""
        return [
            literal_id(t)
            for t in self.literal_targets.get(kind, ())
            if self.graph.has_node(literal_id(t))
        ]

    def stats(self) -> Dict[str, object]:
        """Summary used by Table I, plus the configured cache capacities
        (so a deployment can verify its per-domain ``cache_capacities``
        took effect) and provenance (grammar hash; pack metadata when the
        domain was loaded from a pack)."""
        out: Dict[str, object] = {
            "apis": len(self.document),
            "nonterminals": len(self.grammar.nonterminals),
            "terminals": len(self.grammar.terminals),
            "graph_nodes": self.graph.n_nodes,
            "graph_edges": self.graph.n_edges,
        }
        for layer, capacity in self.path_cache.capacities.items():
            out[f"cache_capacity_{layer}"] = capacity
        out["grammar_hash"] = self.grammar_hash()
        for key, value in self.provenance.items():
            out[f"pack_{key}"] = value
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self.name!r}, apis={len(self.document)})"
