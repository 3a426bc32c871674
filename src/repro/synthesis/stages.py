"""The explicit staged synthesis pipeline with per-stage tracing.

The paper's Fig. 3 pipeline used to exist only implicitly —
``build_problem`` hardwired Steps 1-4 and the engines hid Steps 5-6 — so
the only measurable quantity was whole-query latency.  This module makes
the six stages first-class, each one a plain function call run by
:func:`run_stage`:

======  ================  ================================================
Step    stage name        function
======  ================  ================================================
1       ``parse``         :func:`repro.nlp.parser.parse_query`
2       ``prune``         :func:`repro.nlp.pruning.prune_query_graph`
3       ``word_to_api``   :func:`word_to_api` (candidates, then the
                          candidate-aware prune)
4       ``edge_to_path``  :class:`repro.synthesis.problem.SynthesisProblem`
5       ``merge``         ``engine.search`` (HISyn enumeration / DGGT DP)
6       ``codegen``       :func:`codegen`
======  ================  ================================================

:func:`run_front_end` makes the first four calls and
:func:`synthesize_with` the last two.  A :class:`SynthesisContext`
(query, domain, deadline, stats, and the query's :class:`Trace`) rides
along; ``run_stage(ctx, name, fn, *args)`` checks the deadline, calls
``fn(*args)`` and records a lightweight span — monotonic wall time,
deadline remaining, and, for ``merge`` (the one stage that changes them),
the deltas of the Table III counters — and attributes cooperative
timeouts to the stage they fired in (``exc.stage``/``exc.trace``).
Traces flow end-to-end: ``SynthesisOutcome.to_json(include_trace=True)``,
``repro batch --json --trace``, the serving front ends
(``include_trace`` requests), and the per-stage p50/p99 aggregates in
``GET /stats`` (:class:`StageLatencyAggregator`).  See
docs/architecture.md.

Spans are always recorded; only their output is opt-in.  A span costs two
clock reads per stage, plus a counter snapshot around ``merge`` (< 5% on
the warm path, pinned by benchmarks/test_trace_overhead.py), and never
changes the synthesis result.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.compat import slotted_dataclass
from repro.core.expression import cgt_to_expression
from repro.errors import ReproError, SynthesisError, SynthesisTimeout
from repro.nlp.parser import parse_query
from repro.nlp.pruning import prune_query_graph
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import (
    SynthesisProblem,
    build_candidates,
    drop_candidateless,
)
from repro.synthesis.result import SynthesisOutcome, SynthesisStats

#: The six Fig. 3 stages, in execution order.  Stage names are part of
#: the trace wire format (docs/architecture.md) — never rename them.
STAGE_NAMES: Tuple[str, ...] = (
    "parse",
    "prune",
    "word_to_api",
    "edge_to_path",
    "merge",
    "codegen",
)

#: Steps 1-4 (the shared front end) / Steps 5-6 (the engine back end).
FRONT_END_STAGE_NAMES: Tuple[str, ...] = STAGE_NAMES[:4]
ENGINE_STAGE_NAMES: Tuple[str, ...] = STAGE_NAMES[4:]

#: The optional seventh stage: execution-guided verification of the
#: ranked candidates against input→output examples (repro.verify).  Not
#: part of :data:`STAGE_NAMES` — those are pinned to the paper's six
#: Fig. 3 stages — but a first-class trace/aggregation citizen.
VERIFY_STAGE_NAME = "verify"

#: Every stage a trace can carry, in execution order.
ALL_STAGE_NAMES: Tuple[str, ...] = STAGE_NAMES + (VERIFY_STAGE_NAME,)


#: The Table III counters the ``merge`` span snapshots, by as_dict short
#: name, and the one-call tuple snapshot of the matching SynthesisStats
#: fields.  The cache-delta fields are set *after* the pipeline runs, so
#: they are excluded — their deltas through any stage are always zero.
_COUNTER_NAMES: Tuple[str, ...] = (
    "dep_edges", "orig_paths", "paths_after_reloc", "orphans",
    "reloc_variants", "combinations", "pruned_grammar", "pruned_size",
    "merged", "valid_cgts",
)
_stat_counters = operator.attrgetter(
    "n_dep_edges", "n_orig_paths", "n_paths_after_reloc", "n_orphans",
    "n_reloc_variants", "n_combinations", "pruned_by_grammar",
    "pruned_by_size", "n_merged", "n_valid_cgts",
)


@slotted_dataclass()
class StageSpan:
    """One stage execution inside a :class:`Trace`.

    ``deadline_remaining_seconds`` is the budget left when the stage
    finished (None for an unlimited deadline); ``counters`` holds only
    the stats counters the stage actually changed (typically empty for
    the front end, the Table III numbers for ``merge``).
    """

    stage: str
    elapsed_seconds: float
    deadline_remaining_seconds: Optional[float] = None
    status: str = "ok"  # "ok" | "timeout" | "error"
    counters: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        remaining = self.deadline_remaining_seconds
        return {
            "stage": self.stage,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
            "deadline_remaining_ms": (
                None if remaining is None else round(remaining * 1000.0, 3)
            ),
            "status": self.status,
            "counters": dict(self.counters),
        }


@slotted_dataclass()
class Trace:
    """Per-query record of the stages that ran, in order.

    A cache-hit trace has ``cache_hit=True`` and no spans (the outcome
    cache answers before any stage runs).  Picklable, so traces survive
    the process-pool worker pipe attached to outcomes and timeouts.
    """

    spans: List[StageSpan] = field(default_factory=list)
    cache_hit: bool = False

    def span(self, stage: str) -> Optional[StageSpan]:
        """The last recorded span of a stage (None if it never ran)."""
        for recorded in reversed(self.spans):
            if recorded.stage == stage:
                return recorded
        return None

    @property
    def timed_out_stage(self) -> Optional[str]:
        """The stage whose span recorded the timeout, if any."""
        for recorded in self.spans:
            if recorded.status == "timeout":
                return recorded.stage
        return None

    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage wall time (summed when a stage has several spans)."""
        out: Dict[str, float] = {}
        for recorded in self.spans:
            out[recorded.stage] = (
                out.get(recorded.stage, 0.0) + recorded.elapsed_seconds
            )
        return out

    @property
    def total_seconds(self) -> float:
        return sum(recorded.elapsed_seconds for recorded in self.spans)

    def to_json(self) -> Dict[str, Any]:
        return {
            "cache_hit": self.cache_hit,
            "total_ms": round(self.total_seconds * 1000.0, 3),
            "spans": [recorded.to_json() for recorded in self.spans],
        }


@dataclass
class SynthesisContext:
    """Everything threaded through the staged pipeline for one query.

    ``trace`` collects the spans of every stage that runs;
    ``keep_artifacts`` makes :func:`run_stage` retain each stage's return
    value in ``artifacts`` (used by ``repro explain``, never by the
    serving path — artifacts hold whole dependency graphs and problems).
    """

    query: str
    domain: Any  # repro.synthesis.domain.Domain (kept loose: no cycle)
    deadline: Deadline
    stats: SynthesisStats = field(default_factory=SynthesisStats)
    trace: Trace = field(default_factory=Trace)
    keep_artifacts: bool = False
    artifacts: Dict[str, Any] = field(default_factory=dict)


def _mark_timeout(
    exc: SynthesisTimeout, stage_name: str, trace: Trace
) -> None:
    """Attribute a timeout to the stage it fired in.  The attributes ride
    ``SynthesisTimeout.__reduce__``'s ``__dict__`` element, so they
    survive the process-pool worker pipe like ``partial_stats`` does."""
    if getattr(exc, "stage", None) is None:
        exc.stage = stage_name
    if getattr(exc, "trace", None) is None:
        exc.trace = trace


def _finish_span(
    ctx: SynthesisContext,
    stage_name: str,
    started: float,
    status: str,
    counters_before: Optional[Tuple[int, ...]] = None,
) -> None:
    """Append one span.  The clock is read once, for both the elapsed
    time and the deadline remaining; counter deltas are taken only when
    ``counters_before`` was snapshotted (the ``merge`` stage)."""
    now = time.monotonic()
    expires_at = ctx.deadline.expires_at
    counters: Dict[str, int] = {}
    if counters_before is not None:
        after = _stat_counters(ctx.stats)
        if after != counters_before:
            counters = {
                name: value - before
                for name, value, before in zip(
                    _COUNTER_NAMES, after, counters_before
                )
                if value != before
            }
    ctx.trace.spans.append(
        StageSpan(
            stage_name,
            now - started,
            None if expires_at is None else max(0.0, expires_at - now),
            status,
            counters,
        )
    )


def run_stage(ctx: SynthesisContext, name: str, fn, *args) -> Any:
    """Run ``fn(*args)`` as stage ``name`` under the context's deadline
    and trace.

    The deadline is checked at stage entry, and a
    :class:`SynthesisTimeout` raised anywhere inside the stage is
    attributed to it (``exc.stage`` and ``exc.trace``).  Only ``merge``
    changes the Table III counters, so only its span snapshots them.
    """
    started = time.monotonic()
    before = _stat_counters(ctx.stats) if name == "merge" else None
    try:
        ctx.deadline.check_at(started)
        result = fn(*args)
    except SynthesisTimeout as exc:
        _finish_span(ctx, name, started, "timeout", before)
        _mark_timeout(exc, name, ctx.trace)
        raise
    except Exception as exc:
        _finish_span(ctx, name, started, "error", before)
        if isinstance(exc, ReproError) and getattr(exc, "trace", None) is None:
            exc.trace = ctx.trace
        raise
    _finish_span(ctx, name, started, "ok", before)
    if ctx.keep_artifacts:
        ctx.artifacts[name] = result
    return result


def record_span(
    ctx: SynthesisContext,
    stage_name: str,
    started: float,
    status: str = "ok",
) -> None:
    """Append a span for work timed outside :func:`run_stage` (used by
    the verification stage, which must never raise a timeout for a query
    that already synthesized successfully — it falls back instead, so the
    run_stage entry check would be wrong for it).
    """
    _finish_span(ctx, stage_name, started, status)


def check_stage_entry(ctx: SynthesisContext, stage_name: str) -> None:
    """A deadline check attributed to the stage *about to* run.

    The Synthesizer uses this before its outcome-cache lookup so a zero
    budget still beats a warm cache (tests pin that ordering) while the
    timeout is reported as expiring at ``parse`` entry — which is where
    the pipeline would have stopped.
    """
    try:
        ctx.deadline.check()
    except SynthesisTimeout as exc:
        _finish_span(ctx, stage_name, time.monotonic(), "timeout")
        _mark_timeout(exc, stage_name, ctx.trace)
        raise


# ---------------------------------------------------------------------------
# The stage bodies and the two runners
# ---------------------------------------------------------------------------


def word_to_api(domain, pruned, query: str):
    """Step 3 — endpoint candidates per word, then the candidate-aware
    prune (words matching no API are non-essential).  Returns the pruned
    graph and the candidates of the nodes it kept."""
    candidates = build_candidates(domain, pruned)
    pruned = drop_candidateless(pruned, candidates)
    if not candidates.get(pruned.root):
        raise SynthesisError(
            f"no API candidates for any word of {query!r}; "
            "cannot start synthesis"
        )
    remaining = {
        n.node_id: candidates[n.node_id]
        for n in pruned.nodes()
        if n.node_id in candidates
    }
    return pruned, remaining


def codegen(
    query: str, engine_name: str, graph, cgt, stats: SynthesisStats,
    trace: Optional[Trace] = None,
) -> SynthesisOutcome:
    """Step 6 — render the optimal CGT as a codelet expression.  Engine
    independent: both back ends share this code path verbatim."""
    return SynthesisOutcome(
        query=query,
        engine=engine_name,
        expression=cgt_to_expression(cgt, graph),
        cgt=cgt,
        size=cgt.api_count(graph),
        stats=stats,
        trace=trace,
    )


def run_front_end(ctx: SynthesisContext):
    """Steps 1-4: query text in, engine-ready
    :class:`~repro.synthesis.problem.SynthesisProblem` out (constructing
    it runs the reversed all-path search per dependency edge)."""
    domain = ctx.domain
    dep = run_stage(ctx, "parse", parse_query, ctx.query)
    pruned = run_stage(
        ctx, "prune", prune_query_graph, dep, domain.prune_config
    )
    pruned, candidates = run_stage(
        ctx, "word_to_api", word_to_api, domain, pruned, ctx.query
    )
    return run_stage(
        ctx, "edge_to_path", SynthesisProblem,
        domain, pruned, candidates, domain.path_limits, ctx.deadline,
    )


def synthesize_with(
    engine,
    problem,
    deadline: Optional[Deadline] = None,
    ctx: Optional[SynthesisContext] = None,
) -> SynthesisOutcome:
    """Steps 5-6 for one engine: the shared body behind both engines'
    ``synthesize``.  ``merge`` is ``engine.search`` (HISyn enumeration or
    the DGGT dynamic program), which fills the Table III counters in
    ``ctx.stats``.  When ``ctx`` is None (engines called directly on a
    pre-built problem) a minimal context is built around ``deadline``;
    otherwise ``ctx`` carries the deadline and the spans land in its
    trace.  The outcome's ``elapsed_seconds`` stays 0.0: callers that
    report a wall time (:class:`~repro.synthesis.pipeline.Synthesizer`,
    ``repro explain``) time the whole request themselves."""
    if ctx is None:
        ctx = SynthesisContext(
            query="",
            domain=problem.domain,
            deadline=(
                deadline if deadline is not None else Deadline.unlimited()
            ),
        )
    cgt = run_stage(
        ctx, "merge", engine.search, problem, ctx.deadline, ctx.stats
    )
    return run_stage(
        ctx, "codegen", codegen, ctx.query, engine.name,
        problem.domain.graph, cgt, ctx.stats, ctx.trace,
    )


# ---------------------------------------------------------------------------
# Serving-side aggregation (GET /stats)
# ---------------------------------------------------------------------------


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[index]


class StageLatencyAggregator:
    """Thread-safe per-stage latency windows for the serving layer.

    Every served request's trace is observed; ``snapshot()`` renders the
    per-stage count / mean / p50 / p99 section of ``GET /stats`` that
    capacity planning reads (docs/architecture.md).  Percentiles come
    from a bounded window of the most recent ``window`` samples per
    stage, so a long-lived server reports current behaviour, not its
    lifetime average.
    """

    def __init__(self, window: int = 2048):
        self._lock = threading.Lock()
        self._window = window
        self._samples: Dict[str, "deque[float]"] = {}
        self._counts: Dict[str, int] = {}
        self._totals: Dict[str, float] = {}
        self._cache_hits = 0
        self._observed = 0

    def observe(self, trace: Trace) -> None:
        with self._lock:
            self._observed += 1
            if trace.cache_hit:
                self._cache_hits += 1
            for span in trace.spans:
                window = self._samples.get(span.stage)
                if window is None:
                    window = deque(maxlen=self._window)
                    self._samples[span.stage] = window
                window.append(span.elapsed_seconds)
                self._counts[span.stage] = (
                    self._counts.get(span.stage, 0) + 1
                )
                self._totals[span.stage] = (
                    self._totals.get(span.stage, 0.0) + span.elapsed_seconds
                )

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            stages: Dict[str, Any] = {}
            order = list(ALL_STAGE_NAMES) + sorted(
                set(self._samples) - set(ALL_STAGE_NAMES)
            )
            for stage in order:
                window = self._samples.get(stage)
                if not window:
                    continue
                ordered = sorted(window)
                count = self._counts[stage]
                stages[stage] = {
                    "count": count,
                    "mean_ms": round(
                        self._totals[stage] / count * 1000.0, 3
                    ),
                    "p50_ms": round(
                        _percentile(ordered, 0.50) * 1000.0, 3
                    ),
                    "p99_ms": round(
                        _percentile(ordered, 0.99) * 1000.0, 3
                    ),
                }
            return {
                "observed": self._observed,
                "cache_hits": self._cache_hits,
                "window": self._window,
                "stages": stages,
            }
