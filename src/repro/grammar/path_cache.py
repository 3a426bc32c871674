"""Domain-scoped caching for the synthesis hot path.

Step-4's reversed all-path search is a pure function of the (immutable)
grammar graph, the endpoint pair, and the :class:`PathSearchLimits` — yet
the seed implementation re-ran the DFS for every ``(src, dst)`` pair of
every query.  Within one domain, different queries overwhelmingly share API
pairs ("insert ... line", "append ... line", ... all need the same
INSERT-to-LINESCOPE paths), so memoizing per pair across queries removes
the dominant per-query cost of a serving workload.  The same argument
applies one level up the stack: conflict-pair analysis, path sizes, and the
validity/cost of a sibling-level path merge are all pure functions of path
*node sequences* and the grammar graph, and whole synthesis outcomes are
pure functions of (query, engine, config).

:class:`PathCache` bundles those layers behind one object attached to a
:class:`~repro.synthesis.domain.Domain`.  All grammar-pure layers key on
the domain's :class:`~repro.grammar.interning.GraphInterner` encodings
(ints and int tuples), which is what lets snapshots persist and reload
them as flat arrays:

``paths``
    ``(src_int, dst_int, limits.cache_key())`` -> the pair's paths as
    int encodings, in discovery order.  Nothing is decoded here: node-id
    strings and :class:`GrammarPath` objects are built per edge, only for
    the paths the per-edge cap keeps (``edges`` below).
``conflicts``
    frozenset of path encodings -> conflict pairs expressed over
    encodings (path *ids* are per-query labels, so they cannot key a
    cross-query cache; the interned node sequence is the stable
    identity), turned into the engine's per-path bitmask records.
``sizes``
    path encoding -> ``GrammarPath.size(graph)``.
``merge``
    an opaque memo keyed by a combination's path encodings; the DGGT
    engine stores (validity, exact tree cost) of a sibling-combination
    merge here.
``outcomes``
    an opaque memo for whole synthesis outcomes, used by
    :class:`~repro.synthesis.pipeline.Synthesizer` for repeated queries.
``edges``
    ``(endpoint node-id pairs, limits.cache_key(), catalog edge number)``
    -> one dependency edge's capped, labeled candidate paths with their
    encodings, owning pairs, and each pair's kept paths lightest first,
    built by :class:`~repro.synthesis.problem.SynthesisProblem`.  Literal
    variants of a query resolve to the same endpoints, so they skip the
    cap's sort, the decoding and the relabeling.  A fixed size, no
    environment override, never persisted and not part of
    :meth:`snapshot`.

Every layer is a bounded LRU with hit/miss/eviction counters (surfaced via
:meth:`snapshot` and, per query, in
:class:`~repro.synthesis.result.SynthesisStats`), guarded by a lock
because ``repro serve``'s handler threads share one domain's cache
(batch fans out over processes, each with its own cache).
Invalidation: the cache is valid only for the exact graph object it was
built from; ``Domain.path_cache`` discards it when the domain's graph is
replaced, and :meth:`clear` empties it explicitly.

Persistence: the path/conflict/size/merge layers are pure functions of the
grammar graph, so they can be computed once and shipped to other processes
or later runs.  :func:`write_snapshot` / :func:`load_snapshot` serialize
them to a versioned file keyed by :func:`grammar_fingerprint`; a snapshot
whose stored hash does not match the graph it is loaded into is rejected
(:class:`~repro.errors.CacheSnapshotError`).  The query-keyed ``outcomes``
layer is deliberately *not* persisted: snapshots stay a pure function of
the grammar.

See ``docs/performance.md`` for the full key/invalidation story.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import CacheSnapshotError
from repro.grammar.graph import GrammarGraph
from repro.grammar.interning import IntPath, interner_for
from repro.grammar.paths import PathSearchLimits, _search_enc
from repro.grammar.path_voted import (
    conflict_enc_pairs,
    conflict_mask_records,
)

#: Distinguishes "key absent" from a cached falsy value (empty path lists
#: are common and perfectly cacheable).
_MISSING = object()


DEFAULT_MAX_PATH_ENTRIES = 8192
DEFAULT_MAX_CONFLICT_ENTRIES = 4096
DEFAULT_MAX_SIZE_ENTRIES = 65536
DEFAULT_MAX_MERGE_ENTRIES = 65536
DEFAULT_MAX_OUTCOME_ENTRIES = 2048
#: Per-edge labeled path lists kept (``SynthesisProblem``).
EDGE_ENTRIES = 4096

#: Layer name -> library default capacity.
DEFAULT_CAPACITIES: Dict[str, int] = {
    "paths": DEFAULT_MAX_PATH_ENTRIES,
    "conflicts": DEFAULT_MAX_CONFLICT_ENTRIES,
    "sizes": DEFAULT_MAX_SIZE_ENTRIES,
    "merge": DEFAULT_MAX_MERGE_ENTRIES,
    "outcomes": DEFAULT_MAX_OUTCOME_ENTRIES,
}


def resolve_capacities(
    overrides: Optional[Dict[str, Optional[int]]] = None,
) -> Dict[str, int]:
    """Effective per-layer LRU capacities: the explicit per-domain value
    where one is given, else the library default.  Unknown override keys
    are rejected loudly — a typo here would otherwise silently fall back
    to the default.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(DEFAULT_CAPACITIES)
    if unknown:
        raise ValueError(
            f"unknown cache layers {sorted(unknown)}; "
            f"valid: {sorted(DEFAULT_CAPACITIES)}"
        )
    return {
        layer: default if overrides.get(layer) is None
        else int(overrides[layer])
        for layer, default in DEFAULT_CAPACITIES.items()
    }


class LruCache:
    """A small thread-safe bounded LRU map with hit/miss/eviction counters.

    ``functools.lru_cache`` cannot serve here: keys are computed by the
    caller (not the argument tuple), values must be inspectable for the
    observability counters, and the cache must be clearable per layer.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Any:
        """The cached value, or the module's ``_MISSING`` sentinel."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
            else:
                self.hits += 1
                self._data.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing (outside the lock) on a miss.

        Concurrent misses may compute redundantly; the result is
        deterministic, so last-write-wins is correct.
        """
        value = self.get(key)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def items(self) -> List[Tuple[Any, Any]]:
        """A consistent (key, value) list in LRU order, oldest first —
        the order :func:`write_snapshot` persists, so re-inserting on load
        reproduces the recency ranking."""
        with self._lock:
            return list(self._data.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data


class PathCache:
    """All cross-query caches of one domain (see module docstring).

    Capacities default to the module constants; pass explicit values (or
    ``None`` for "use the default") per layer — see
    :func:`resolve_capacities`.
    """

    #: Layers persisted by :func:`write_snapshot` — the grammar-pure ones.
    PERSISTED_LAYERS = ("paths", "conflicts", "sizes", "merge")

    def __init__(
        self,
        graph: GrammarGraph,
        *,
        max_path_entries: Optional[int] = None,
        max_conflict_entries: Optional[int] = None,
        max_size_entries: Optional[int] = None,
        max_merge_entries: Optional[int] = None,
        max_outcome_entries: Optional[int] = None,
    ):
        self.graph = graph
        self.interner = interner_for(graph)
        self.capacities = resolve_capacities(
            {
                "paths": max_path_entries,
                "conflicts": max_conflict_entries,
                "sizes": max_size_entries,
                "merge": max_merge_entries,
                "outcomes": max_outcome_entries,
            }
        )
        self.paths = LruCache(self.capacities["paths"])
        self.conflicts = LruCache(self.capacities["conflicts"])
        self.sizes = LruCache(self.capacities["sizes"])
        self.merge = LruCache(self.capacities["merge"])
        self.outcomes = LruCache(self.capacities["outcomes"])
        #: Per-edge labeled candidate paths (``SynthesisProblem``).
        self.edges = LruCache(EDGE_ENTRIES)
        self.invalidations = 0

    def layer(self, name: str) -> LruCache:
        if name not in DEFAULT_CAPACITIES:
            raise ValueError(f"unknown cache layer {name!r}")
        return getattr(self, name)

    # ------------------------------------------------------------------
    # Path-search layer
    # ------------------------------------------------------------------

    def find_paths(
        self,
        src_id: str,
        dst_id: str,
        limits: Optional[PathSearchLimits] = None,
        on_miss: Optional[Callable[[], None]] = None,
    ) -> Tuple[IntPath, ...]:
        """Memoized reversed all-path search for one endpoint pair, as
        interned encodings in discovery order.

        ``on_miss`` runs before a cache-missing search (the problem layer
        passes its deadline check, so cache hits never pay the clock read
        and misses still honour the budget).  Results are tuples: cached
        values must never be mutated by callers.  Keys are interned ints;
        endpoints outside the grammar short-circuit to an empty result
        without touching the cache.
        """
        limits = limits or PathSearchLimits()
        index = self.interner.index
        src_int = index.get(src_id)
        dst_int = index.get(dst_id)
        if src_int is None or dst_int is None:
            return ()
        key = (src_int, dst_int, limits.cache_key())
        encs = self.paths.get(key)
        if encs is not _MISSING:
            return encs
        if on_miss is not None:
            on_miss()
        if src_int == dst_int:
            encs = ((src_int,),)
        else:
            encs = tuple(_search_enc(self.interner, src_int, dst_int, limits))
        self.paths.put(key, encs)
        return encs

    # ------------------------------------------------------------------
    # Conflict-pair layer
    # ------------------------------------------------------------------

    def conflict_masks(
        self, encs: Sequence[IntPath]
    ) -> List[Tuple[int, int]]:
        """Per-path ``(bit, mask)`` conflict records (grammar-based
        pruning, Sec. V-A), aligned with ``encs``, with the pair analysis
        memoized across queries by the set of encodings."""
        interner = self.interner
        key = frozenset(encs)
        enc_pairs = self.conflicts.get_or_compute(
            key, lambda: conflict_enc_pairs(interner, key)
        )
        return conflict_mask_records(encs, enc_pairs)

    # ------------------------------------------------------------------
    # Path-size layer
    # ------------------------------------------------------------------

    def size_of_enc(self, enc: IntPath) -> int:
        """Memoized ``GrammarPath.size(graph)`` of an interned encoding."""
        return self.sizes.get_or_compute(
            enc, lambda: self.interner.size_of_enc(enc)
        )

    # ------------------------------------------------------------------
    # Opaque memo layers (merge results, whole outcomes)
    # ------------------------------------------------------------------

    def merge_info(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Memo for sibling-combination merge results (DGGT Case II)."""
        return self.merge.get_or_compute(key, compute)

    def get_outcome(self, key: Any) -> Any:
        """A cached synthesis outcome, or ``None``."""
        value = self.outcomes.get(key)
        return None if value is _MISSING else value

    def put_outcome(self, key: Any, value: Any) -> None:
        self.outcomes.put(key, value)

    # ------------------------------------------------------------------
    # Observability & invalidation
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Cumulative counters, keyed exactly like the SynthesisStats
        fields so per-query deltas are a dict subtraction."""
        return {
            "path_cache_hits": self.paths.hits,
            "path_cache_misses": self.paths.misses,
            "path_cache_evictions": self.paths.evictions,
            "conflict_cache_hits": self.conflicts.hits,
            "conflict_cache_misses": self.conflicts.misses,
            "size_cache_hits": self.sizes.hits,
            "size_cache_misses": self.sizes.misses,
            "merge_cache_hits": self.merge.hits,
            "merge_cache_misses": self.merge.misses,
            "outcome_cache_hits": self.outcomes.hits,
            "outcome_cache_misses": self.outcomes.misses,
            "cache_invalidations": self.invalidations,
        }

    def clear(self) -> None:
        """Explicit invalidation: drop every entry (counters survive, so
        long-lived deltas remain meaningful)."""
        for layer in (
            self.paths, self.conflicts, self.sizes, self.merge, self.outcomes,
            self.edges,
        ):
            layer.clear()
        self.invalidations += 1

    # ------------------------------------------------------------------
    # Persistence (snapshot export/import — see module docstring)
    # ------------------------------------------------------------------

    def export_entries(self) -> Dict[str, List[Tuple[Any, Any]]]:
        """The persistable layers' entries, oldest-first per layer (all
        ints and int tuples)."""
        return {
            name: self.layer(name).items() for name in self.PERSISTED_LAYERS
        }

    def import_entries(
        self, layers: Dict[str, List[Tuple[Any, Any]]]
    ) -> int:
        """Insert previously exported entries; returns how many were kept.

        Entries are inserted oldest-first, so when a layer's capacity here
        is smaller than the snapshot's, the LRU keeps the most recently
        used tail — the same entries a live cache would have kept.
        """
        kept = 0
        for name in self.PERSISTED_LAYERS:
            lru = self.layer(name)
            for key, value in layers.get(name, ()):
                lru.put(key, value)
            kept += len(lru)
        return kept

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathCache(paths={len(self.paths)}, conflicts={len(self.conflicts)}, "
            f"sizes={len(self.sizes)}, merge={len(self.merge)}, "
            f"outcomes={len(self.outcomes)})"
        )


# ---------------------------------------------------------------------------
# Grammar fingerprint & on-disk snapshots
# ---------------------------------------------------------------------------

#: Bump when the snapshot payload layout changes; readers reject other
#: versions rather than guessing.  Version 2 switched every persisted
#: layer to interned int keys/encodings (version-1 snapshots carried
#: string node tuples and raw GrammarPath objects; loading one here
#: would mis-key every layer, so :func:`read_snapshot` rejects it and
#: ``cache warm`` regenerates).
SNAPSHOT_FORMAT_VERSION = 2

#: Snapshot file suffix (one file per (domain, grammar hash)).
SNAPSHOT_SUFFIX = ".dggtcache"


def grammar_fingerprint(graph: GrammarGraph) -> str:
    """Stable content hash of a grammar graph.

    Covers everything cached results depend on: the node set (id, kind,
    label), the edge set (src, dst, kind), the "or" groups, head-API
    argument order, the generic-API weights, and the start node.  Two
    graphs built from the same BNF + API split hash identically across
    processes and runs (no ``id()``/ordering leakage); any grammar change
    produces a new hash, which is what keys snapshots and rejects stale
    ones.
    """
    api_nodes = sorted(n.node_id for n in graph.api_nodes())
    payload = (
        "v1",
        sorted((n.node_id, n.kind.value, n.label) for n in graph.nodes()),
        sorted((e.src, e.dst, e.kind.value) for e in graph.edges()),
        sorted((k, tuple(v)) for k, v in graph.or_groups().items()),
        [(nid, tuple(graph.head_arguments(nid))) for nid in api_nodes],
        sorted(graph.generic_apis),
        graph.start_id,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """Where snapshots live unless a caller says otherwise:
    ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-dggt``, else
    ``~/.cache/repro-dggt``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-dggt"


def snapshot_path(
    cache_dir: Union[str, Path], domain_name: str, grammar_hash: str
) -> Path:
    """Canonical snapshot file for one (domain, grammar hash): the hash
    participates in the name, so a grammar change naturally misses the old
    file instead of reading a stale one."""
    return (
        Path(cache_dir)
        / f"{domain_name}-{grammar_hash[:16]}{SNAPSHOT_SUFFIX}"
    )


def write_snapshot(
    cache: PathCache, file_path: Union[str, Path], domain_name: str
) -> Path:
    """Persist the grammar-pure layers of ``cache`` to ``file_path``.

    The write is atomic: the payload goes to a temporary file in the same
    directory, is fsynced, and replaces the target with ``os.replace`` —
    a concurrent reader sees either the old snapshot or the new one,
    never a torn file.
    """
    file_path = Path(file_path)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "domain": domain_name,
        "grammar_hash": grammar_fingerprint(cache.graph),
        "created_unix": time.time(),
        "capacities": dict(cache.capacities),
        "layers": cache.export_entries(),
    }
    fd, tmp_name = tempfile.mkstemp(
        prefix=file_path.name + ".", suffix=".tmp", dir=file_path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, file_path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return file_path


def read_snapshot(file_path: Union[str, Path]) -> Dict[str, Any]:
    """Read and structurally validate a snapshot payload.

    Raises :class:`~repro.errors.CacheSnapshotError` for unreadable or
    corrupt files and unknown format versions.  Hash freshness is the
    *loader's* check (:func:`load_snapshot`) — reading alone cannot know
    which graph the caller intends.
    """
    file_path = Path(file_path)
    try:
        with open(file_path, "rb") as handle:
            payload = pickle.load(handle)
    except OSError as exc:
        raise CacheSnapshotError(
            f"cannot read cache snapshot {file_path}: {exc}"
        ) from exc
    except Exception as exc:  # unpickling failures of any flavour
        raise CacheSnapshotError(
            f"corrupt cache snapshot {file_path}: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CacheSnapshotError(
            f"corrupt cache snapshot {file_path}: not a snapshot payload"
        )
    version = payload["format_version"]
    if version != SNAPSHOT_FORMAT_VERSION:
        raise CacheSnapshotError(
            f"cache snapshot {file_path} has format version {version!r}; "
            f"this build reads version {SNAPSHOT_FORMAT_VERSION}"
        )
    for key in ("domain", "grammar_hash", "layers"):
        if key not in payload:
            raise CacheSnapshotError(
                f"corrupt cache snapshot {file_path}: missing {key!r}"
            )
    return payload


def load_snapshot(
    cache: PathCache,
    file_path: Union[str, Path],
    *,
    domain_name: Optional[str] = None,
) -> int:
    """Load a snapshot into ``cache``; returns the number of entries kept.

    Rejects (raises :class:`~repro.errors.CacheSnapshotError`) snapshots
    whose grammar hash differs from ``cache.graph``'s — a stale file from
    before a grammar change must never seed the cache with wrong paths —
    and, when ``domain_name`` is given, snapshots written for another
    domain.
    """
    payload = read_snapshot(file_path)
    expected = grammar_fingerprint(cache.graph)
    if payload["grammar_hash"] != expected:
        raise CacheSnapshotError(
            f"stale cache snapshot {file_path}: grammar hash "
            f"{payload['grammar_hash'][:16]}... does not match the current "
            f"grammar ({expected[:16]}...); rebuild with 'cache warm'"
        )
    if domain_name is not None and payload["domain"] != domain_name:
        raise CacheSnapshotError(
            f"cache snapshot {file_path} was written for domain "
            f"{payload['domain']!r}, not {domain_name!r}"
        )
    return cache.import_entries(payload["layers"])


def snapshot_info(file_path: Union[str, Path]) -> Dict[str, Any]:
    """Human-facing metadata about a snapshot file (the ``cache info``
    CLI): domain, hash, entry counts per layer, size on disk."""
    file_path = Path(file_path)
    payload = read_snapshot(file_path)
    return {
        "file": str(file_path),
        "bytes": file_path.stat().st_size,
        "format_version": payload["format_version"],
        "domain": payload["domain"],
        "grammar_hash": payload["grammar_hash"],
        "created_unix": payload.get("created_unix"),
        "entries": {
            name: len(items) for name, items in payload["layers"].items()
        },
    }
