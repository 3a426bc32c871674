"""Evaluation harness (paper Sec. VII-A methodology).

Runs a query set through one engine with the paper's per-query time budget:
"we set 20 seconds as the timeout limit for processing one query.  If the
synthesizer fails to finish in time, we stop synthesizing, regard it an
error case and record 20 sec as the execution time."

Accuracy follows the paper's criterion: "a synthesized DSL code is correct
if it is identical to the ground truth code in terms of both the set of
APIs, arguments, and their relative order" — implemented by comparing
codelets after normalization through the codelet re-parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.expression import normalize_codelet
from repro.eval.dataset import QueryCase
from repro.synthesis.domain import Domain
from repro.synthesis.pipeline import BatchItem, Synthesizer
from repro.synthesis.result import SynthesisStats

#: The paper's per-query budget (seconds).
DEFAULT_TIMEOUT = 20.0


@dataclass
class CaseResult:
    """Outcome of one (query, engine) run."""

    case: QueryCase
    engine: str
    status: str  # "ok" | "timeout" | "error"
    elapsed_seconds: float
    codelet: Optional[str] = None
    correct: bool = False
    size: Optional[int] = None
    stats: Optional[SynthesisStats] = None
    error: str = ""
    #: Per-stage wall time (stage name -> seconds), populated when the run
    #: collected traces (``collect_trace=True``); None otherwise.
    stage_seconds: Optional[Dict[str, float]] = None

    @property
    def timed_out(self) -> bool:
        return self.status == "timeout"


def _case_result_from_item(
    engine_name: str, case: QueryCase, item: BatchItem
) -> CaseResult:
    """Translate one batch item into the harness's CaseResult record."""
    trace = item.trace
    stage_seconds = trace.stage_seconds() if trace is not None else None
    if item.ok:
        truth = normalize_codelet(case.ground_truth)
        codelet = normalize_codelet(item.outcome.codelet)
        return CaseResult(
            case=case,
            engine=engine_name,
            status="ok",
            elapsed_seconds=item.elapsed_seconds,
            codelet=codelet,
            correct=codelet == truth,
            size=item.outcome.size,
            stats=item.outcome.stats,
            stage_seconds=stage_seconds,
        )
    if item.status == "timeout":
        return CaseResult(
            case=case,
            engine=engine_name,
            status="timeout",
            elapsed_seconds=item.elapsed_seconds,
            stats=getattr(item.error, "partial_stats", None),
            error="timeout",
            stage_seconds=stage_seconds,
        )
    return CaseResult(
        case=case,
        engine=engine_name,
        status="error",
        elapsed_seconds=item.elapsed_seconds,
        error=str(item.error),
        stage_seconds=stage_seconds,
    )


def run_case(
    synthesizer: Synthesizer,
    case: QueryCase,
    timeout_seconds: float = DEFAULT_TIMEOUT,
    collect_trace: bool = False,
) -> CaseResult:
    """Run one case; timeouts are clamped to the budget per Sec. VII-B."""
    [item] = synthesizer.synthesize_many(
        [case.query],
        timeout_seconds_each=timeout_seconds,
        collect_trace=collect_trace,
    )
    return _case_result_from_item(synthesizer.engine.name, case, item)


def run_dataset(
    domain: Domain,
    cases: Sequence[QueryCase],
    engine: str = "dggt",
    timeout_seconds: float = DEFAULT_TIMEOUT,
    config=None,
    progress: Optional[Callable[[CaseResult], None]] = None,
    max_workers: int = 1,
    cache_dir: Optional[str] = None,
    collect_trace: bool = False,
) -> List[CaseResult]:
    """Run a full query set through one engine.

    The whole set goes through :meth:`Synthesizer.synthesize_many`, so the
    cases share one warm domain cache; ``max_workers > 1`` fans them out
    over a process pool (requires a registry-resolvable domain; see the
    pipeline docs).
    ``cache_dir`` preloads persistent cache snapshots.  With any fan-out,
    ``progress`` fires in completion order rather than dataset order.
    ``collect_trace`` runs every case with per-stage tracing and fills
    :attr:`CaseResult.stage_seconds` (where did the budget go — parsing,
    path search, or merging?).
    """
    synthesizer = Synthesizer(domain, engine=engine, config=config)
    engine_name = synthesizer.engine.name
    case_list = list(cases)
    converted: Dict[int, CaseResult] = {}

    def convert(item: BatchItem) -> CaseResult:
        result = converted.get(item.index)
        if result is None:
            result = _case_result_from_item(
                engine_name, case_list[item.index], item
            )
            converted[item.index] = result
        return result

    on_result = None
    if progress is not None:
        on_result = lambda item: progress(convert(item))  # noqa: E731

    items = synthesizer.synthesize_many(
        [case.query for case in case_list],
        timeout_seconds_each=timeout_seconds,
        max_workers=max_workers,
        cache_dir=cache_dir,
        on_result=on_result,
        collect_trace=collect_trace,
    )
    return [convert(item) for item in items]
