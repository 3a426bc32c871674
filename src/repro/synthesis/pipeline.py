"""End-to-end synthesis pipeline (the six steps of the paper's Fig. 3).

One front end (Steps 1-4: parse, prune, WordToAPI, EdgeToPath), two back
ends (Steps 5-6): the exhaustive HISyn baseline and DGGT.  The stages
themselves live in :mod:`repro.synthesis.stages`, each wrapped in a trace
span (see docs/architecture.md).  The :class:`Synthesizer` is the
package's main entry point::

    from repro import Synthesizer, load_domain
    synth = Synthesizer(load_domain("textediting"), engine="dggt")
    outcome = synth.synthesize("insert ':' at the start of each line")
    print(outcome.codelet)

For serving workloads, :meth:`Synthesizer.synthesize_many` processes a
batch of queries and returns per-query outcomes — including per-query
errors — in input order.  ``max_workers <= 1`` runs them serially over
this process's warm domain cache; ``max_workers > 1`` fans them out over
a ``ProcessPoolExecutor`` whose workers initialize the domain once by
*name* from :mod:`repro.domains` (only the name, engine config, and
limits cross the pipe) and optionally preload a persistent cache
snapshot (``cache_dir``), so every worker starts as warm as the first.
The pipeline is pure Python, so threads would only contend for the GIL;
processes are the CPU-scaling path.

See ``docs/performance.md`` for the caching architecture and the
measured serial-vs-processes numbers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Union

from repro.errors import (
    InvalidRequestError,
    ReproError,
    SynthesisTimeout,
    error_code,
)
from repro.synthesis.deadline import Deadline
from repro.synthesis.domain import Domain
from repro.synthesis.problem import SynthesisProblem, build_problem
from repro.synthesis.ranking import (
    alternative_outcomes,
    outcomes_to_candidates,
)
from repro.synthesis.result import SynthesisOutcome, SynthesisStats
from repro.synthesis.stages import (
    VERIFY_STAGE_NAME,
    SynthesisContext,
    check_stage_entry,
    record_span,
    run_front_end,
)

#: Default candidate-list depth when a request supplies examples (or asks
#: for candidates without a count).  Small: each extra candidate is one
#: extra engine run over the already-built problem.
DEFAULT_TOP_K = 4

# Engines are imported lazily inside make_engine: the engine modules depend
# on repro.synthesis.problem, so importing them at module scope would make
# this package circular.
EngineLike = Union[str, object]


def make_engine(engine: EngineLike, config=None):
    """Resolve an engine name ("hisyn" / "dggt") or pass through an
    instance.  ``config`` (a :class:`~repro.core.dggt.DggtConfig`) only
    applies when building a DGGT engine."""
    from repro.baseline.hisyn import HISynEngine
    from repro.core.dggt import DggtEngine

    if isinstance(engine, (HISynEngine, DggtEngine)):
        return engine
    if engine == "hisyn":
        return HISynEngine()
    if engine == "dggt":
        return DggtEngine(config)
    # InvalidRequestError carries the stable "invalid_request" wire code,
    # so serving clients see a structured 400 instead of a 500.
    raise InvalidRequestError(
        f"unknown engine {engine!r}; use 'hisyn' or 'dggt'"
    )


def _check_candidates(candidates: Optional[int]) -> None:
    """Reject a candidate-list depth below 1 (None means the default)."""
    if candidates is not None and candidates < 1:
        raise ValueError(f"candidates must be at least 1, got {candidates}")


def checked_examples(domain: Domain, examples):
    """Normalize a request's input→output examples (None when absent).

    Fails fast with :class:`~repro.errors.InvalidExamplesError` when the
    domain has no registered executor: the caller should learn that
    before paying for a synthesis whose verdicts could never be produced.
    """
    if examples is None:
        return None
    from repro.verify.examples import normalize_examples
    from repro.verify.executors import get_executor

    examples = normalize_examples(examples)
    if examples is not None:
        get_executor(domain.name)
    return examples


def attach_candidates(
    ctx: SynthesisContext,
    problem: SynthesisProblem,
    outcome: SynthesisOutcome,
    engine,
    examples=None,
    candidates: Optional[int] = None,
) -> None:
    """The one rank+verify step: generate the top-K candidate list for a
    synthesized ``outcome`` (:func:`~repro.synthesis.ranking.
    alternative_outcomes`) and, when ``examples`` (normalized) were
    supplied, run the execution-guided verify stage over it (see
    docs/verification.md).  ``candidates`` is K (default
    ``DEFAULT_TOP_K``).

    Mutates ``outcome`` in place: attaches ``candidates`` (in verified
    order when examples were given) and ``verification``, and when
    verification promotes a lower-ranked candidate, swaps in its
    expression/CGT as the answer.
    """
    k = candidates if candidates is not None else DEFAULT_TOP_K
    outs = alternative_outcomes(problem, outcome, engine, ctx.deadline, k)
    ranked = outcomes_to_candidates(outs)
    if examples is None:
        outcome.candidates = ranked
        return

    # Lazy: verify is an optional stage.
    from repro.verify.executors import get_executor
    from repro.verify.verifier import verify_candidates

    executor = get_executor(ctx.domain.name)
    started = time.monotonic()
    report = verify_candidates(
        executor,
        [(c.rank, c.codelet) for c in ranked],
        examples,
        ctx.deadline,
    )
    # Not run_stage: its entry deadline check would turn a completed
    # synthesis into a timeout.  The span is recorded directly, with
    # "exhausted" marking the unverified-ranking fallback in traces.
    record_span(
        ctx,
        VERIFY_STAGE_NAME,
        started,
        status=(
            "exhausted" if report.status == "deadline_exhausted" else "ok"
        ),
    )
    outcome.candidates = tuple(ranked[r - 1] for r in report.order)
    outcome.verification = report
    if report.winner_rank != 1:
        winner = outs[report.winner_rank - 1]
        outcome.expression = winner.expression
        outcome.cgt = winner.cgt
        outcome.size = winner.size


@dataclass
class BatchItem:
    """Per-query result of :meth:`Synthesizer.synthesize_many`.

    Exactly one of ``outcome`` / ``error`` is set; ``index`` is the query's
    position in the input batch (results are returned in input order
    regardless of worker count).  Everything here — outcome, stats, and
    error objects included — pickles cleanly: the process pool ships
    BatchItems over the worker pipe verbatim.
    """

    query: str
    index: int
    outcome: Optional[SynthesisOutcome] = None
    error: Optional[ReproError] = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome is not None

    @property
    def status(self) -> str:
        """"ok" | "timeout" | "error" — the eval harness's categories."""
        if self.outcome is not None:
            return "ok"
        if isinstance(self.error, SynthesisTimeout):
            return "timeout"
        return "error"

    def to_json(
        self,
        *,
        include_stats: bool = False,
        include_trace: bool = False,
    ) -> dict:
        """The one per-query JSON shape shared by ``repro batch --json``
        and the ``repro serve`` front ends (see docs/serving.md).

        ``codelet``/``size``/``engine`` are null on failure; ``error`` is
        null on success and otherwise ``{"code", "message"}`` with a
        stable code from :data:`repro.errors.ERROR_CODES` — plus
        ``"stage"`` when the staged pipeline attributed the failure to a
        Fig. 3 stage (timeouts always carry it).  ``include_trace``
        attaches the recorded per-stage spans (docs/architecture.md) for
        successes and failures alike; a request rejected before any stage
        ran has no trace, and the key is omitted.
        """
        out: dict = {
            "index": self.index,
            "query": self.query,
            "status": self.status,
            "codelet": None,
            "size": None,
            "engine": None,
            "elapsed_seconds": self.elapsed_seconds,
            "error": None,
        }
        if self.outcome is not None:
            out.update(
                self.outcome.to_json(
                    include_stats=include_stats,
                    include_trace=include_trace,
                )
            )
            out["elapsed_seconds"] = self.elapsed_seconds
        elif self.error is not None:
            out["error"] = {
                "code": error_code(self.error),
                "message": str(self.error),
            }
            stage = getattr(self.error, "stage", None)
            if stage is not None:
                out["error"]["stage"] = stage
            trace = getattr(self.error, "trace", None)
            if include_trace and trace is not None:
                out["trace"] = trace.to_json()
        return out

    @property
    def trace(self):
        """The recorded :class:`~repro.synthesis.stages.Trace`, whether
        the query succeeded (on the outcome) or failed (attached to the
        error by the stage machinery); None when the query was rejected
        before any stage ran."""
        if self.outcome is not None:
            return self.outcome.trace
        return getattr(self.error, "trace", None)

    @property
    def cache_stats(self) -> Optional[SynthesisStats]:
        """The record holding this query's cache-counter deltas: the
        outcome's stats on success, the record the Synthesizer attached to
        the error on failure; None when the query failed before its
        first cache lookup."""
        if self.outcome is not None:
            return self.outcome.stats
        return getattr(self.error, "cache_stats", None)


def _normalize_batch_entry(entry):
    """One batch entry -> ``(query, examples)``.

    Entries are plain query strings (the legacy shape), ``(query,
    examples)`` pairs, or mappings with a ``"query"`` key and an optional
    ``"examples"`` key — the JSONL object shape ``repro batch`` reads.
    """
    from repro.verify.examples import normalize_examples

    if isinstance(entry, str):
        return entry, None
    if isinstance(entry, dict):
        query = entry.get("query")
        if not isinstance(query, str) or not query.strip():
            raise InvalidRequestError(
                "batch entry object needs a non-empty string 'query' key"
            )
        unknown = set(entry) - {"query", "examples"}
        if unknown:
            raise InvalidRequestError(
                "unknown batch entry key(s): "
                + ", ".join(sorted(unknown))
            )
        return query, normalize_examples(entry.get("examples"))
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        query, raw = entry
        if not isinstance(query, str):
            raise InvalidRequestError(
                "batch entry pair must be (query, examples)"
            )
        return query, normalize_examples(raw)
    raise InvalidRequestError(
        f"bad batch entry {entry!r}: expected a query string, a "
        "(query, examples) pair, or a {'query', 'examples'} object"
    )


def _run_single(
    synthesizer: "Synthesizer",
    index: int,
    query: str,
    timeout_seconds: Optional[float],
    **options: Any,
) -> BatchItem:
    """One query -> one BatchItem, failures captured (shared by the serial
    loop, the process-pool workers, and serve's dispatch, so they cannot
    drift in budget/error semantics).  ``options`` are
    :meth:`Synthesizer.synthesize` keywords."""
    started = time.monotonic()
    try:
        outcome = synthesizer.synthesize(query, timeout_seconds, **options)
        return BatchItem(
            query,
            index,
            outcome=outcome,
            elapsed_seconds=outcome.elapsed_seconds,
        )
    except SynthesisTimeout as exc:
        # Clamp to the budget, as the paper's harness does.
        elapsed = (
            timeout_seconds
            if timeout_seconds is not None
            else exc.elapsed_seconds
        )
        return BatchItem(query, index, error=exc, elapsed_seconds=elapsed)
    except ReproError as exc:
        return BatchItem(
            query,
            index,
            error=exc,
            elapsed_seconds=time.monotonic() - started,
        )


# ---------------------------------------------------------------------------
# Process-pool plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a pool worker needs to rebuild the parent's Synthesizer —
    by *name*, so only this small picklable record crosses the pipe."""

    domain_name: str
    engine_name: str
    config: Any
    cache_outcomes: bool
    cache_dir: Optional[str]


#: Per-worker-process Synthesizer, built once by ``_process_worker_init``.
_WORKER_SYNTH: Optional["Synthesizer"] = None


def _process_worker_init(spec: _WorkerSpec) -> None:
    """Pool-worker initializer: resolve the domain from the registry
    (process-shared instance, so every batch in this worker reuses one
    warm cache), preload the on-disk snapshot when configured, and build
    the worker's Synthesizer."""
    global _WORKER_SYNTH
    from repro.domains import get as get_domain

    domain = get_domain(spec.domain_name)
    if spec.cache_dir is not None:
        # Best-effort: a missing or stale snapshot just means a cold start.
        domain.load_cache(spec.cache_dir)
    _WORKER_SYNTH = Synthesizer(
        domain,
        engine=spec.engine_name,
        config=spec.config,
        cache_outcomes=spec.cache_outcomes,
    )


def _process_worker_run(
    index: int,
    query: str,
    timeout_seconds: Optional[float],
    examples=None,
    candidates: Optional[int] = None,
) -> BatchItem:
    """Task body executed in a pool worker.  Per-query deltas are exact
    here: each worker process runs its queries sequentially against its
    own cache.  Traces (and the stage a timeout fired in) ride the
    returned BatchItem across the pipe — outcomes, errors, the
    :class:`~repro.synthesis.stages.Trace` payload, and the frozen
    example/verification records all pickle."""
    assert _WORKER_SYNTH is not None, "worker initializer did not run"
    return _run_single(
        _WORKER_SYNTH, index, query, timeout_seconds,
        examples=examples, candidates=candidates,
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap startup, copy-on-write domain build),
    spawn elsewhere — semantics are identical because workers only consume
    the picklable _WorkerSpec."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class Synthesizer:
    """Domain-bound synthesizer with a selectable back end.

    All Synthesizers over one :class:`Domain` share the domain's
    :class:`~repro.grammar.path_cache.PathCache`; additionally, when
    ``cache_outcomes`` is on (the default), whole results of successful
    syntheses are memoized per (query, engine, config, limits), so a
    repeated query is answered without re-running the pipeline at all.
    Set ``cache_outcomes=False`` to always exercise the full pipeline
    (the sub-query caches still apply).
    """

    def __init__(
        self,
        domain: Domain,
        engine: EngineLike = "dggt",
        *,
        config=None,
        cache_outcomes: bool = True,
    ):
        self.domain = domain
        self.engine = make_engine(engine, config)
        #: The domain's path-search limits, part of the outcome-cache key.
        self.limits = domain.path_limits
        self.cache_outcomes = cache_outcomes

    def build_problem(
        self, query: str, deadline: Optional[Deadline] = None
    ) -> SynthesisProblem:
        """Run the shared front end only (useful for inspection/debugging)."""
        return build_problem(self.domain, query, deadline)

    # ------------------------------------------------------------------
    # Single-query entry point
    # ------------------------------------------------------------------

    def _outcome_key(self, query: str):
        """Identity of a synthesis result: everything it is a pure
        function of, besides the domain (which scopes the cache)."""
        config = getattr(self.engine, "config", None)
        return (query, self.engine.name, config, self.limits.cache_key())

    @staticmethod
    def _replay(cached: SynthesisOutcome) -> SynthesisOutcome:
        """A fresh outcome shell around a cached result.  Expression and
        CGT are immutable and shared; the stats record is copied so the
        per-query cache counters can be rewritten without touching the
        cached original."""
        return SynthesisOutcome(
            query=cached.query,
            engine=cached.engine,
            expression=cached.expression,
            cgt=cached.cgt,
            size=cached.size,
            stats=dataclasses.replace(cached.stats),
            elapsed_seconds=0.0,
        )

    def synthesize(
        self,
        query: str,
        timeout_seconds: Optional[float] = None,
        *,
        record_cache_delta: bool = True,
        examples=None,
        candidates: Optional[int] = None,
    ) -> SynthesisOutcome:
        """Synthesize a codelet for ``query``.

        ``timeout_seconds=None`` means unlimited; any other value —
        including 0 — is a hard budget.  Raises
        :class:`~repro.errors.SynthesisTimeout` when the budget runs out
        (the harness records such cases as errors at the cut-off, per the
        paper's Sec. VII-B), and :class:`~repro.errors.SynthesisError`
        when no grammar-valid codelet exists for the query.

        ``record_cache_delta=False`` skips the per-query PathCache delta
        (``stats.cache_delta_scope`` becomes "batch", fields read 0) —
        serve's concurrent handler threads use this because subtracting
        counters shared with concurrent queries would produce racy
        numbers.

        Every call records a per-stage
        :class:`~repro.synthesis.stages.Trace` on ``outcome.trace`` — and
        on the raised exception when the pipeline fails mid-stage.

        ``examples`` (input→output pairs: :class:`~repro.verify.IOExample`
        records, ``(input, output)`` tuples, or ``{"input", "output"}``
        mappings) turns on execution-guided verification: the top-K
        candidates run sandboxed against every example through the
        domain's registered executor, consistent candidates are promoted,
        and ``outcome.verification`` carries the per-candidate verdicts.
        Raises :class:`~repro.errors.InvalidExamplesError` — before any
        synthesis work — when the domain has no registered executor.

        ``candidates`` asks for a top-K candidate list on
        ``outcome.candidates`` even without examples; with examples the
        default is ``DEFAULT_TOP_K``.  Either option bypasses the outcome
        cache (the memoized shell carries neither list).  A ``candidates``
        below 1 raises :class:`ValueError` before any work.

        A failure raised after the outcome-cache lookup carries this
        query's cache deltas as ``exc.cache_stats`` (a
        :class:`~repro.synthesis.result.SynthesisStats`) when
        ``record_cache_delta`` is on.
        """
        _check_candidates(candidates)
        examples = checked_examples(self.domain, examples)
        want_candidates = examples is not None or candidates is not None
        ctx = SynthesisContext(
            query=query, domain=self.domain,
            deadline=Deadline(timeout_seconds),
        )
        # The deadline is checked before the outcome-cache lookup (a zero
        # budget beats a warm cache); attributed to "parse", the stage the
        # pipeline would have entered.
        check_stage_entry(ctx, "parse")
        cache = self.domain.path_cache
        before = cache.snapshot() if record_cache_delta else None
        started = time.monotonic()

        key = (
            self._outcome_key(query)
            if self.cache_outcomes and not want_candidates
            else None
        )
        cached = cache.get_outcome(key) if key is not None else None
        if cached is not None:
            outcome = self._replay(cached)
            # No stages ran; the trace records only the hit.
            ctx.trace.cache_hit = True
            outcome.trace = ctx.trace
        else:
            try:
                outcome = self._run_pipeline(ctx, examples, candidates)
            except ReproError as exc:
                if record_cache_delta:
                    # A failed query's lookups count too:
                    # BatchItem.cache_stats reads them from here for
                    # ``repro batch --stats``.
                    exc.cache_stats = SynthesisStats()
                    exc.cache_stats.record_cache_delta(
                        before, cache.snapshot()
                    )
                raise
        if record_cache_delta:
            outcome.stats.record_cache_delta(before, cache.snapshot())
        else:
            outcome.stats.mark_cache_delta_unrecorded()
        outcome.elapsed_seconds = time.monotonic() - started
        if key is not None and cached is None:
            cache.put_outcome(key, outcome)
        return outcome

    def _run_pipeline(
        self,
        ctx: SynthesisContext,
        examples=None,
        candidates: Optional[int] = None,
    ) -> SynthesisOutcome:
        """The uncached body of :meth:`synthesize`: Steps 1-6 under
        ``ctx``, then the rank+verify step when the caller supplied
        (normalized) examples or asked for candidates.  ``repro explain``
        runs it with ``ctx.keep_artifacts`` on and renders what the
        stages left behind."""
        problem = run_front_end(ctx)
        outcome = self.engine.synthesize(problem, ctx=ctx)
        if examples is not None or candidates is not None:
            attach_candidates(
                ctx, problem, outcome, self.engine, examples, candidates
            )
        return outcome

    # ------------------------------------------------------------------
    # Batch entry point (serving workloads)
    # ------------------------------------------------------------------

    def _worker_spec(self, cache_dir: Optional[str]) -> _WorkerSpec:
        """Validate that this Synthesizer can be rebuilt by name inside a
        pool worker, and pack the recipe."""
        from repro.domains import is_registered

        if not is_registered(self.domain.name):
            raise ReproError(
                f"max_workers > 1 needs domain {self.domain.name!r} in "
                "the repro.domains registry (register(name, factory) at "
                "module scope) so pool workers can rebuild it by name"
            )
        engine_name = getattr(self.engine, "name", None)
        if engine_name not in ("dggt", "hisyn"):
            raise ReproError(
                "max_workers > 1 needs a named engine ('dggt'/'hisyn'); "
                f"got {self.engine!r}"
            )
        return _WorkerSpec(
            domain_name=self.domain.name,
            engine_name=engine_name,
            config=getattr(self.engine, "config", None),
            cache_outcomes=self.cache_outcomes,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )

    def synthesize_many(
        self,
        queries: Iterable[str],
        *,
        timeout_seconds_each: Optional[float] = None,
        max_workers: int = 1,
        cache_dir: Optional[str] = None,
        on_result=None,
        candidates: Optional[int] = None,
    ) -> List[BatchItem]:
        """Synthesize a batch of queries.

        Per-query failures (timeouts included) are captured in the
        returned :class:`BatchItem` list — one item per query, in input
        order — rather than aborting the batch.  ``timeout_seconds_each``
        is an independent budget per query.

        ``max_workers <= 1`` (default) runs serially over this
        Synthesizer's shared warm cache; ``cache_dir`` preloads *this*
        domain's snapshot (best effort) before the batch.

        ``max_workers > 1`` fans out across a ``ProcessPoolExecutor`` —
        the CPU-scaling path.  Requires a registry-resolvable domain and a
        named engine (see :meth:`_worker_spec`); each worker builds its
        domain once, preloads the on-disk snapshot when ``cache_dir`` is
        given, and ships picklable BatchItems back.  Budgets, failure
        capture, result order, and per-query cache deltas are identical
        to the serial path.

        ``on_result`` (optional) is invoked with each finished
        :class:`BatchItem` as it completes — in input order for a serial
        run, in completion order otherwise.

        Every item carries its per-stage spans (``item.trace``; ``repro
        batch --json --trace`` renders them); traces pickle across the
        worker pipe.

        Entries may also be ``(query, examples)`` pairs or ``{"query",
        "examples"}`` objects (the JSONL batch shape) to verify individual
        queries against input→output examples; ``candidates`` asks every
        entry for a top-K candidate list.  Both ride the same per-query
        budget.
        """
        _check_candidates(candidates)
        entries = [_normalize_batch_entry(q) for q in queries]
        if max_workers > 1:
            return self._synthesize_many_process(
                entries, timeout_seconds_each, max_workers, cache_dir,
                on_result, candidates,
            )

        if cache_dir is not None:
            self.domain.load_cache(cache_dir)
        items = []
        for index, (query, examples) in enumerate(entries):
            item = _run_single(
                self, index, query, timeout_seconds_each,
                examples=examples, candidates=candidates,
            )
            if on_result is not None:
                on_result(item)
            items.append(item)
        return items

    def _synthesize_many_process(
        self,
        entries: List[tuple],
        timeout_seconds_each: Optional[float],
        max_workers: int,
        cache_dir: Optional[str],
        on_result,
        candidates: Optional[int] = None,
    ) -> List[BatchItem]:
        spec = self._worker_spec(cache_dir)
        n_workers = min(max_workers, max(1, len(entries)))
        results: List[Optional[BatchItem]] = [None] * len(entries)
        with ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=_pool_context(),
            initializer=_process_worker_init,
            initargs=(spec,),
        ) as pool:
            futures = [
                pool.submit(
                    _process_worker_run, i, q, timeout_seconds_each,
                    ex, candidates,
                )
                for i, (q, ex) in enumerate(entries)
            ]
            for future in as_completed(futures):
                item = future.result()
                results[item.index] = item
                if on_result is not None:
                    on_result(item)
        return [item for item in results if item is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Synthesizer({self.domain.name!r}, engine={self.engine.name!r})"
