"""The resident synthesis service behind both serving front ends.

:class:`SynthesisService` is the transport-independent core of ``repro
serve``: it keeps one warm :class:`~repro.synthesis.domain.Domain` per
configured domain resident for the life of the process (cache snapshots
preloaded at startup), routes each request to the right domain through the
:mod:`repro.domains` registry, and wraps dispatch with the serving
concerns a long-running deployment needs:

* **admission scheduling** — every request passes through a
  :class:`~repro.server.scheduler.RequestScheduler`: at most
  ``max_inflight`` requests execute at once, excess requests wait in a
  bounded queue (``queue_depth``; 0 = shed immediately, the
  pre-scheduler behaviour) up to their own deadline, per-domain
  concurrency budgets keep one hot domain from starving the rest, and
  requests shed at a full queue carry a ``retry_after_ms`` hint;
* **hot snapshot reload** — :meth:`reload_snapshots` (wired to SIGHUP
  and ``POST /admin/reload`` by the front ends) atomically swaps freshly
  loaded PathCache snapshots without dropping in-flight or queued work;
* **deadline propagation** — the per-request ``timeout`` (clamped to
  ``max_timeout``, defaulting to ``default_timeout``) flows into the
  engines' existing cooperative :class:`~repro.synthesis.deadline.Deadline`,
  so a served request times out exactly like a CLI run;
* **structured errors** — every failure maps to a stable wire code
  (:data:`repro.errors.ERROR_CODES` + the serving codes in
  :mod:`repro.server.protocol`);
* **per-stage observability** — every dispatched request runs the staged
  pipeline (:mod:`repro.synthesis.stages`) with tracing on; the spans
  feed the ``stages`` p50/p99 section of ``GET /stats`` and, on
  ``include_trace`` requests, ride the response payload;
* **graceful lifecycle** — :meth:`begin_shutdown` flips the service to
  draining (new work rejected with ``shutting_down``), :meth:`drain`
  waits for in-flight requests to finish, :meth:`close` marks the
  service closed.  The front ends wire SIGINT/SIGTERM to exactly this
  sequence.

Requests run on the transport's threads against the shared warm cache.
The PathCache is lock-guarded, so this is safe; per-query cache deltas
are not recorded (they would race across concurrent requests —
``stats.cache_delta_scope`` reads ``"batch"``), use ``/stats`` for
service-level counters.  To spread synthesis over cores, run pre-fork
workers (:mod:`repro.server.multiproc`, ``repro serve --workers N``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.domains import load_domains
from repro.errors import (
    DeadlineExceeded,
    DomainError,
    InvalidExamplesError,
    PackError,
    ReproError,
    error_code,
)
from repro.packs.loader import refresh_domain
from repro.server.scheduler import (
    QueueFull,
    RequestScheduler,
    SchedulerDraining,
)
from repro.synthesis.domain import Domain
from repro.synthesis.pipeline import (
    BatchItem,
    Synthesizer,
    _run_single,
)
from repro.synthesis.stages import StageLatencyAggregator
from repro.server.protocol import (
    BadRequest,
    SynthesisRequest,
    error_response,
    ok_response,
    parse_request,
)


@dataclass(frozen=True)
class ServerConfig:
    """Startup configuration for a :class:`SynthesisService`."""

    #: Domain names to keep resident (() = every registered domain).
    domains: Tuple[str, ...] = ()
    #: Default domain when a request names none (must be in ``domains``;
    #: None = the first configured name).
    default_domain: Optional[str] = None
    #: Default synthesis engine ("dggt" / "hisyn").
    engine: str = "dggt"
    #: Snapshot directory preloaded at startup (None: the library default,
    #: ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-dggt``).
    cache_dir: Optional[str] = None
    #: Admission-control bound on concurrently executing requests.
    max_inflight: int = 8
    #: Bounded-queue capacity for requests waiting on a slot.  0 (the
    #: default) disables queueing: at capacity, shed immediately with
    #: ``overloaded`` — exactly the pre-scheduler semantics.
    queue_depth: int = 0
    #: Adaptive admission tuning: the scheduler resizes its effective
    #: queue from the live EWMA service time (against
    #: ``default_timeout``) and makes implicit domain budgets
    #: work-conserving.  Requires ``queue_depth >= 1``.
    adaptive_queue: bool = False
    #: Per-domain concurrency budgets as (name, slots) pairs (a dict is
    #: accepted and normalized).  Domains not listed get a fair share of
    #: ``max_inflight`` when queueing is enabled, or ``max_inflight``
    #: (no extra constraint) in the legacy ``queue_depth=0`` mode.
    domain_budgets: Tuple[Tuple[str, int], ...] = ()
    #: Per-request budget when the request carries none (seconds).
    default_timeout: float = 20.0
    #: Hard ceiling a request's own ``timeout`` is clamped to.
    max_timeout: float = 120.0

    def __post_init__(self) -> None:
        if isinstance(self.domain_budgets, dict):
            object.__setattr__(
                self,
                "domain_budgets",
                tuple(sorted(self.domain_budgets.items())),
            )
        if self.engine not in ("dggt", "hisyn"):
            raise ReproError(
                f"unknown engine {self.engine!r}; use 'dggt' or 'hisyn'"
            )
        if self.max_inflight < 1:
            raise ReproError("max_inflight must be >= 1")
        if self.queue_depth < 0:
            raise ReproError("queue_depth must be >= 0")
        if self.adaptive_queue and self.queue_depth < 1:
            raise ReproError("adaptive_queue requires queue_depth >= 1")
        for name, slots in self.domain_budgets:
            if not isinstance(slots, int) or isinstance(slots, bool) \
                    or slots < 1:
                raise ReproError(
                    f"domain budget for {name!r} must be a positive "
                    f"integer, got {slots!r}"
                )
        if self.default_timeout < 0 or self.max_timeout <= 0:
            raise ReproError("timeouts must be non-negative")


@dataclass
class _DomainState:
    """Per-domain serving state."""

    domain: Domain
    snapshot_loaded: bool
    snapshot_file: str
    requests: int = 0
    synthesizers: Dict[str, Synthesizer] = field(default_factory=dict)


class SynthesisService:
    """Multi-domain synthesis routing with admission control and a
    graceful lifecycle (see module docstring).

    The service is transport-independent: both front ends call
    :meth:`handle_payload` (decoded JSON in, ``(http_status, payload)``
    out) and the health/stats accessors; nothing here knows about sockets
    or pipes.
    """

    def __init__(self, config: Optional[ServerConfig] = None, **kwargs: Any):
        if config is None:
            config = ServerConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a ServerConfig or keyword fields")
        self.config = config
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._draining = False
        self._closed = False
        self._reloads = 0
        #: Snapshot directory requests are served from; starts at the
        #: configured dir and follows :meth:`reload_snapshots`.
        self._cache_dir = config.cache_dir
        self._counters: Dict[str, int] = {
            "total": 0, "ok": 0, "timeout": 0, "error": 0, "rejected": 0,
            "expired": 0,
        }
        # Execution-guided verification observability (GET /stats):
        # requests that carried examples, how many completed verification,
        # how many promoted a lower-ranked candidate, and how many fell
        # back to unverified ranking on deadline exhaustion.
        self._verify_counters: Dict[str, int] = {
            "requests_with_examples": 0, "verified": 0, "reranked": 0,
            "exhausted": 0,
        }
        # Every dispatched request runs with tracing on (the per-stage
        # overhead is two clock reads and a counter snapshot per stage);
        # the trace feeds the per-stage p50/p99 section of GET /stats and
        # is returned to the client only on include_trace requests.
        self._stage_latency = StageLatencyAggregator()

        domains = load_domains(config.domains or None)
        if not domains:
            raise DomainError("no domains to serve")
        self._domains: Dict[str, _DomainState] = {}
        for name, domain in domains.items():
            loaded = domain.load_cache(config.cache_dir)
            state = _DomainState(
                domain=domain,
                snapshot_loaded=loaded,
                snapshot_file=str(domain.cache_file(config.cache_dir)),
            )
            state.synthesizers[config.engine] = Synthesizer(
                domain, engine=config.engine
            )
            self._domains[name] = state
        default = (
            config.default_domain
            if config.default_domain is not None
            else next(iter(self._domains))
        )
        if default.lower() not in self._domains:
            raise DomainError(
                f"default domain {default!r} is not among the served "
                f"domains {sorted(self._domains)}"
            )
        self.default_domain = default.lower()
        self._scheduler = RequestScheduler(
            max_inflight=config.max_inflight,
            queue_depth=config.queue_depth,
            domains=tuple(sorted(self._domains)),
            domain_budgets={
                name.lower(): slots for name, slots in config.domain_budgets
            },
            adaptive=config.adaptive_queue,
            target_deadline_seconds=config.default_timeout,
        )
        # Multi-worker serving: set via attach_worker_board() by the
        # worker entry point.  When attached, /stats aggregates every
        # worker's counters and /healthz identifies the worker.
        self._worker_board: Optional[Any] = None
        # Test/benchmark knob: an artificial floor on per-request service
        # time, so load tests measure serving capacity independent of
        # engine speed and host CPU count.
        raw_delay = os.environ.get("REPRO_SERVE_INJECT_DELAY_MS", "")
        self._inject_delay_seconds = (
            float(raw_delay) / 1000.0 if raw_delay else 0.0
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def handle_payload(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Validate + dispatch one decoded request body.  Never raises:
        every failure becomes a structured error payload."""
        req_id = payload.get("id") if isinstance(payload, dict) else None
        try:
            request = parse_request(payload)
        except BadRequest as exc:
            self._count("rejected")
            return error_response("bad_request", str(exc), id=req_id)
        except InvalidExamplesError as exc:
            self._count("rejected")
            return error_response("invalid_examples", str(exc), id=req_id)
        return self.synthesize(request)

    def synthesize(
        self, request: SynthesisRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one validated request; returns (http_status, payload)."""
        name = (request.domain or self.default_domain).lower()
        state = self._domains.get(name)
        if state is None:
            self._count("rejected")
            return error_response(
                "unknown_domain",
                f"domain {name!r} is not served here; "
                f"available: {sorted(self._domains)}",
                id=request.id,
            )
        timeout = self._resolve_timeout(request.timeout)

        # Admission: the scheduler either grants a slot (immediately, or
        # after a bounded deadline-aware wait), or rejects with a stable
        # structured code — an expired or shed request never dispatches.
        try:
            grant = self._scheduler.acquire(name, timeout, request.priority)
        except SchedulerDraining as exc:
            self._count("rejected")
            return error_response("shutting_down", str(exc), id=request.id)
        except QueueFull as exc:
            self._count("rejected")
            return error_response(
                "overloaded",
                str(exc),
                id=request.id,
                retry_after_ms=(
                    exc.retry_after_ms
                    if self._scheduler.queueing_enabled else None
                ),
            )
        except DeadlineExceeded as exc:
            self._count("expired")
            return error_response(
                "deadline_exceeded",
                str(exc),
                id=request.id,
                queue_wait_ms=round(exc.waited_seconds * 1000.0, 3),
            )

        with self._lock:
            state.requests += 1
        # The deadline covers queueing + synthesis: hand the engines
        # whatever budget the queue wait left over.
        budget = max(0.0, timeout - grant.queue_wait_seconds)
        dispatch_started = time.monotonic()
        try:
            item = self._dispatch(state, request, budget)
            self._stage_latency.observe(getattr(item, "trace", None))
            if request.examples is not None:
                self._count_verification(item)
            if self._scheduler.queueing_enabled and item.outcome is not None:
                item.outcome.queue_wait_ms = round(
                    grant.queue_wait_seconds * 1000.0, 3
                )
            status, payload = ok_response(item, request)
            if self._scheduler.queueing_enabled and item.outcome is None:
                payload["queue_wait_ms"] = round(
                    grant.queue_wait_seconds * 1000.0, 3
                )
        except ReproError as exc:
            # Failures with a stable wire code that escape dispatch (e.g.
            # an unknown engine name from make_engine → invalid_request)
            # are client errors, not 500s.
            self._count("error")
            return error_response(error_code(exc), str(exc), id=request.id)
        except BaseException as exc:  # the service must stay up
            self._count("error")
            return error_response(
                "internal", f"{type(exc).__name__}: {exc}", id=request.id
            )
        finally:
            self._scheduler.release(
                name, service_seconds=time.monotonic() - dispatch_started
            )
        self._count(payload.get("status", "error"))
        return status, payload

    def _resolve_timeout(self, requested: Optional[float]) -> float:
        if requested is None:
            return self.config.default_timeout
        return min(requested, self.config.max_timeout)

    def _dispatch(
        self,
        state: _DomainState,
        request: SynthesisRequest,
        timeout: float,
    ) -> BatchItem:
        engine = request.engine or self.config.engine
        if self._inject_delay_seconds > 0:
            time.sleep(self._inject_delay_seconds)
        synth = self._synthesizer(state, engine)
        # Per-query cache deltas race across concurrent server requests
        # (shared counters), so they are not recorded: scope is "batch".
        # Tracing is always on: the spans feed /stats (and the response,
        # when the request asked for them).
        return _run_single(
            synth, 0, request.query, timeout, record_cache_delta=False,
            collect_trace=True, examples=request.examples,
        )

    def _count_verification(self, item: BatchItem) -> None:
        """Fold one examples-carrying request into the verification
        counters (``/stats``)."""
        report = getattr(
            getattr(item, "outcome", None), "verification", None
        )
        with self._lock:
            self._verify_counters["requests_with_examples"] += 1
            if report is None:
                return
            if report.status == "verified":
                self._verify_counters["verified"] += 1
            if report.status == "deadline_exhausted":
                self._verify_counters["exhausted"] += 1
            if report.reranked:
                self._verify_counters["reranked"] += 1

    def _synthesizer(self, state: _DomainState, engine: str) -> Synthesizer:
        with self._lock:
            synth = state.synthesizers.get(engine)
            if synth is None:
                synth = Synthesizer(state.domain, engine=engine)
                state.synthesizers[engine] = synth
            return synth

    def _count(self, status: str) -> None:
        with self._lock:
            self._counters["total"] += 1
            if status in self._counters:
                self._counters[status] += 1

    # ------------------------------------------------------------------
    # Introspection (the /healthz and /stats payloads)
    # ------------------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._scheduler.inflight_total

    @property
    def queued(self) -> int:
        return self._scheduler.queued

    @property
    def scheduler(self) -> RequestScheduler:
        return self._scheduler

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def attach_worker_board(self, board: Any) -> None:
        """Join a multi-worker stats board (see
        :mod:`repro.server.multiproc`).  Once attached, :meth:`stats`
        returns the cross-worker aggregate and :meth:`health` identifies
        this worker; a board-less service (the single-worker mode) is
        byte-identical to the pre-multiproc payloads."""
        self._worker_board = board

    @property
    def worker_board(self) -> Optional[Any]:
        return self._worker_board

    def health(self) -> Dict[str, Any]:
        """Readiness payload: lifecycle state plus, per domain, the
        snapshot provenance and current cache occupancy."""
        with self._lock:
            status = "draining" if (self._draining or self._closed) else "ok"
            counters = dict(self._counters)
            reloads = self._reloads
        scheduler = self._scheduler.snapshot()
        domains: Dict[str, Any] = {}
        for name, state in self._domains.items():
            cache = state.domain.path_cache
            domains[name] = {
                "apis": len(state.domain.document),
                "grammar_hash": state.domain.grammar_hash(),
                "snapshot_loaded": state.snapshot_loaded,
                "snapshot_file": state.snapshot_file,
                "requests": state.requests,
                "cache_entries": {
                    layer: len(cache.layer(layer))
                    for layer in (*cache.PERSISTED_LAYERS, "outcomes")
                },
            }
        payload = {
            "status": status,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "engine": self.config.engine,
            "default_domain": self.default_domain,
            "max_inflight": self.config.max_inflight,
            "inflight": scheduler["inflight"],
            "requests": counters,
            "scheduler": scheduler,
            "reloads": reloads,
            "domains": domains,
        }
        if self._worker_board is not None:
            payload["worker"] = {
                "id": self._worker_board.worker_id,
                "pid": os.getpid(),
            }
        return payload

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload.  Single-worker: this worker's
        counters (:meth:`stats_local`), byte-identical to the
        pre-multiproc schema.  With a worker board attached: the
        cross-worker aggregate (summed request/scheduler/verification
        counters plus a per-worker breakdown)."""
        local = self.stats_local()
        if self._worker_board is None:
            return local
        return self._worker_board.merged(local)

    def stats_local(self) -> Dict[str, Any]:
        """Service-level cache counters: per domain, the cumulative
        PathCache layer hits/misses/evictions plus configured capacities
        (the same counters ``SynthesisStats`` reports per query), the
        scheduler's queue/budget observability section, and the
        per-stage latency aggregates (``stages``: count / mean / p50 /
        p99 per Fig. 3 stage over a sliding window — the capacity-planning
        view docs/architecture.md describes)."""
        with self._lock:
            counters = dict(self._counters)
            verify_counters = dict(self._verify_counters)
            reloads = self._reloads
        domains: Dict[str, Any] = {}
        for name, state in self._domains.items():
            cache = state.domain.path_cache
            domains[name] = {
                "counters": cache.snapshot(),
                "capacities": dict(cache.capacities),
                "entries": {
                    layer: len(cache.layer(layer))
                    for layer in (*cache.PERSISTED_LAYERS, "outcomes")
                },
            }
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests": counters,
            "scheduler": self._scheduler.snapshot(),
            "stages": self._stage_latency.snapshot(),
            "verification": verify_counters,
            "reloads": reloads,
            "domains": domains,
        }

    def domain_names(self) -> Sequence[str]:
        return sorted(self._domains)

    def domain_info(self) -> Dict[str, Any]:
        """Per-domain provenance for ``GET /domains``: API count, grammar
        hash, and — for pack-backed domains — the pack name / version /
        source directory / content hash recorded at build time."""
        info: Dict[str, Any] = {}
        for name in sorted(self._domains):
            domain = self._domains[name].domain
            entry: Dict[str, Any] = {
                "description": domain.description,
                "apis": len(domain.document),
                "grammar_hash": domain.grammar_hash(),
            }
            if domain.provenance:
                entry["pack"] = dict(domain.provenance)
            info[name] = entry
        return info

    # ------------------------------------------------------------------
    # Hot snapshot reload (SIGHUP / POST /admin/reload)
    # ------------------------------------------------------------------

    def reload_snapshots(
        self, cache_dir: Optional[str] = None
    ) -> Dict[str, Any]:
        """Atomically adopt freshly loaded cache snapshots — and, for
        pack-backed domains, freshly read pack files — without dropping
        in-flight or queued work.

        Pack-backed domains (:mod:`repro.packs`) are re-read from disk
        first: an *edited* pack builds a whole new
        :class:`~repro.synthesis.domain.Domain` (new grammar hash, hence
        a new snapshot key) that is reference-swapped in — in-flight
        requests finish against the Synthesizer/Domain objects they
        already resolved; new requests see the new grammar.  An unchanged
        pack keeps its exact Domain object, so its results stay
        byte-identical across the reload.  A pack that no longer
        validates keeps serving its previous build and reports the
        validation error in the reload payload.

        Then, for every served domain, the snapshot is read from
        ``cache_dir`` (default: the directory currently in effect) into a
        *new* PathCache which is then reference-swapped in — requests
        already running keep the cache object they resolved, new requests
        see the new one (:meth:`Domain.reload_cache`).  A domain whose
        snapshot is missing or stale keeps its current cache and reports
        ``snapshot_loaded: false``.  Safe to call concurrently (calls
        serialize) and while serving traffic.
        """
        with self._reload_lock:
            target_dir = cache_dir if cache_dir is not None else self._cache_dir
            domains: Dict[str, Any] = {}
            for name, state in self._domains.items():
                pack_info = self._refresh_pack(name, state)
                loaded = state.domain.reload_cache(target_dir)
                snapshot_file = str(state.domain.cache_file(target_dir))
                if loaded or pack_info.get("pack_reloaded"):
                    # A swapped pack means a new grammar hash, and the
                    # snapshot key embeds it — adopt the new file path
                    # even when no snapshot exists there yet.
                    state.snapshot_loaded = loaded
                    state.snapshot_file = snapshot_file
                domains[name] = {
                    "snapshot_loaded": loaded,
                    "snapshot_file": snapshot_file,
                    "grammar_hash": state.domain.grammar_hash(),
                    **pack_info,
                }
            self._cache_dir = target_dir
            with self._lock:
                self._reloads += 1
                reloads = self._reloads
        return {
            "status": "ok",
            "reloads": reloads,
            "cache_dir": (
                str(target_dir) if target_dir is not None else None
            ),
            "domains": domains,
        }

    def _refresh_pack(
        self, name: str, state: _DomainState
    ) -> Dict[str, Any]:
        """Re-read one pack-backed domain from disk; caller holds the
        reload lock.  Swaps ``state.domain`` (and drops its Synthesizers,
        which wrap the old object) only when the pack content actually
        changed.  Non-pack domains report nothing."""
        try:
            refreshed = refresh_domain(name)
        except PackError as exc:
            # The edited pack no longer validates: the previous build
            # keeps serving, the caller sees exactly why.
            return {"pack_reloaded": False, "pack_error": str(exc)}
        if refreshed is None:
            if state.domain.provenance:
                return {"pack_reloaded": False}
            return {}
        with self._lock:
            state.domain = refreshed
            state.synthesizers = {
                self.config.engine: Synthesizer(
                    refreshed, engine=self.config.engine
                )
            }
            state.snapshot_loaded = False
        return {"pack_reloaded": True}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_shutdown(self) -> None:
        """Stop admitting new requests; queued requests fail with
        ``shutting_down``; in-flight work keeps running."""
        with self._lock:
            self._draining = True
        self._scheduler.begin_shutdown()

    def drain(self, grace_seconds: Optional[float] = None) -> bool:
        """Wait for in-flight requests to finish (after
        :meth:`begin_shutdown`).  Returns True when the service is idle,
        False when ``grace_seconds`` elapsed with work still running."""
        return self._scheduler.drain(grace_seconds)

    def close(self) -> None:
        """Mark the service closed.  Idempotent; implies
        :meth:`begin_shutdown`."""
        with self._lock:
            if self._closed:
                return
            self._draining = True
            self._closed = True
        self._scheduler.begin_shutdown()

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.begin_shutdown()
        self.drain(grace_seconds=30.0)
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SynthesisService(domains={sorted(self._domains)}, "
            f"inflight={self.inflight}/{self.config.max_inflight})"
        )
