"""Synthesis outcome and instrumentation records.

:class:`SynthesisStats` mirrors the columns of the paper's Table III (paths
before/after orphan relocation, combination counts, how many combinations
each pruning stage removed, how many were actually merged), so the case-study
bench regenerates that table directly from these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.cgt import CGT
from repro.core.expression import Expr


@dataclass
class SynthesisStats:
    """Counters filled in by the engines while synthesizing one query."""

    n_dep_edges: int = 0
    n_orig_paths: int = 0          # total candidate paths before relocation
    n_paths_after_reloc: int = 0   # total candidate paths after relocation
    n_orphans: int = 0
    n_reloc_variants: int = 0      # dependency-graph variants synthesized
    n_combinations: int = 0        # combinations considered (pre-pruning)
    pruned_by_grammar: int = 0     # removed by grammar-based pruning
    pruned_by_size: int = 0        # removed by size-based pruning
    n_merged: int = 0              # combinations actually merged into trees
    n_valid_cgts: int = 0          # merge results that were valid CGTs

    # Per-query deltas of the domain's cross-query PathCache counters
    # (see repro.grammar.path_cache), recorded by the Synthesizer so the
    # throughput benchmark can assert warm-vs-cold behaviour instead of
    # guessing.  They are before/after subtractions of counters shared by
    # every query on the domain, so they are only meaningful when nothing
    # else touches the cache during the query: where queries run
    # concurrently on one cache (serve's handler threads) the Synthesizer
    # skips them entirely (``cache_delta_scope == "batch"``, fields stay
    # 0) instead of reporting racy numbers.  Batches record exact
    # per-query deltas: the serial path runs one query at a time, and
    # each pool worker runs its queries sequentially against its own
    # cache.
    path_cache_hits: int = 0
    path_cache_misses: int = 0
    path_cache_evictions: int = 0
    conflict_cache_hits: int = 0
    conflict_cache_misses: int = 0
    size_cache_hits: int = 0
    size_cache_misses: int = 0
    merge_cache_hits: int = 0
    merge_cache_misses: int = 0
    outcome_cache_hits: int = 0
    outcome_cache_misses: int = 0

    #: "query" — the cache fields above are this query's exact deltas;
    #: "batch" — they were not recorded (shared-counter subtraction races
    #: under concurrent workers) and read 0; use batch-level snapshots.
    cache_delta_scope: str = "query"

    #: The cache-counter fields, in as_dict order.
    CACHE_FIELDS = (
        "path_cache_hits",
        "path_cache_misses",
        "path_cache_evictions",
        "conflict_cache_hits",
        "conflict_cache_misses",
        "size_cache_hits",
        "size_cache_misses",
        "merge_cache_hits",
        "merge_cache_misses",
        "outcome_cache_hits",
        "outcome_cache_misses",
    )

    def record_cache_delta(
        self, before: Dict[str, int], after: Dict[str, int]
    ) -> None:
        """Set the cache counters from two PathCache snapshots taken
        around this query's synthesis."""
        self.cache_delta_scope = "query"
        for name in self.CACHE_FIELDS:
            setattr(self, name, after.get(name, 0) - before.get(name, 0))

    def mark_cache_delta_unrecorded(self) -> None:
        """Zero the cache counters and flag them aggregate-only — used by
        concurrent thread fan-out, where per-query subtraction of the
        shared counters would interleave with other workers' queries."""
        self.cache_delta_scope = "batch"
        for name in self.CACHE_FIELDS:
            setattr(self, name, 0)

    def merge_from(self, other: "SynthesisStats") -> None:
        """Accumulate a per-variant stats record into this one."""
        self.n_combinations += other.n_combinations
        self.pruned_by_grammar += other.pruned_by_grammar
        self.pruned_by_size += other.pruned_by_size
        self.n_merged += other.n_merged
        self.n_valid_cgts += other.n_valid_cgts

    def as_dict(self) -> Dict[str, int]:
        out = {
            "dep_edges": self.n_dep_edges,
            "orig_paths": self.n_orig_paths,
            "paths_after_reloc": self.n_paths_after_reloc,
            "orphans": self.n_orphans,
            "reloc_variants": self.n_reloc_variants,
            "combinations": self.n_combinations,
            "pruned_grammar": self.pruned_by_grammar,
            "pruned_size": self.pruned_by_size,
            "merged": self.n_merged,
            "valid_cgts": self.n_valid_cgts,
        }
        for name in self.CACHE_FIELDS:
            out[name] = getattr(self, name)
        return out

    def to_json(self) -> Dict[str, object]:
        """JSON-safe stats payload: the :meth:`as_dict` counters plus the
        ``cache_delta_scope`` flag callers need to interpret them."""
        out: Dict[str, object] = dict(self.as_dict())
        out["cache_delta_scope"] = self.cache_delta_scope
        return out


@dataclass
class SynthesisOutcome:
    """The result of synthesizing one query with one engine."""

    query: str
    engine: str
    expression: Expr
    cgt: CGT
    size: int  # number of APIs in the codelet
    stats: SynthesisStats = field(default_factory=SynthesisStats)
    elapsed_seconds: float = 0.0
    #: Milliseconds the request waited in the serving admission queue
    #: before dispatch.  None outside a scheduler-enabled server (batch
    #: runs, direct synthesis, legacy immediate-shed serving), in which
    #: case the field is omitted from :meth:`to_json`.
    queue_wait_ms: Optional[float] = None
    #: Per-stage spans recorded by the staged pipeline
    #: (:class:`repro.synthesis.stages.Trace`); None unless tracing was
    #: requested.  Typed loosely to keep result.py free of stage imports.
    trace: Optional[object] = None
    #: The top-K candidate list, final order (tuple of
    #: :class:`repro.synthesis.ranking.RankedCandidate`); None unless the
    #: caller asked for candidates or supplied examples.  Typed loosely to
    #: keep result.py free of ranking imports.
    candidates: Optional[tuple] = None
    #: The execution-guided verification report
    #: (:class:`repro.verify.VerificationReport`); None unless the request
    #: carried input→output examples.
    verification: Optional[object] = None

    @property
    def codelet(self) -> str:
        return self.expression.render()

    def to_json(
        self, *, include_stats: bool = False, include_trace: bool = False
    ) -> Dict[str, object]:
        """The one JSON shape for a successful synthesis, shared by the
        batch CLI and the serving front ends (see docs/serving.md).

        ``include_trace`` attaches the per-stage span payload (see
        docs/architecture.md) when a trace was recorded; without a
        recorded trace the key is omitted, keeping legacy payloads
        byte-identical.
        """
        out: Dict[str, object] = {
            "query": self.query,
            "engine": self.engine,
            "codelet": self.codelet,
            "size": self.size,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.queue_wait_ms is not None:
            out["queue_wait_ms"] = self.queue_wait_ms
        # Candidate/verification payloads exist only when the request
        # opted in (candidates=K or examples), so legacy outputs stay
        # byte-identical.
        if self.candidates is not None:
            out["candidates"] = [c.to_json() for c in self.candidates]
        if self.verification is not None:
            out["verification"] = self.verification.to_json()
        if include_stats:
            out["stats"] = self.stats.to_json()
        if include_trace and self.trace is not None:
            out["trace"] = self.trace.to_json()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SynthesisOutcome({self.engine}, size={self.size}, "
            f"{self.codelet!r})"
        )
