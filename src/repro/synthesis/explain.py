"""Pipeline explanation: render every Fig. 3 artifact for one query.

NL programming lives or dies on trust — when a codelet looks wrong, the
user needs to see *why* the system read the query that way.  This module
renders the full intermediate state: the dependency graph (Step 1), the
pruned graph (Step 2), the WordToAPI map (Step 3), the EdgeToPath sizes and
a sample of candidate paths (Step 4), orphan detection and the relocation
variants (Sec. V-B), and the synthesized codelet with its statistics.

The walk-through is the Synthesizer's own run, not a re-enactment: the
query runs once through the body of :meth:`Synthesizer.synthesize` with
``keep_artifacts=True``, and the text renders only what that run left
behind — the stage outputs (so the Step 1/Step 2 graphs are the exact
objects the engine consumed), the outcome or failure, and the
:class:`~repro.synthesis.stages.Trace` that ``repro batch --json
--trace`` and the server emit.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.core.orphan import relocation_variants
from repro.errors import ReproError
from repro.synthesis.deadline import Deadline
from repro.synthesis.domain import Domain
from repro.synthesis.pipeline import (
    EngineLike,
    Synthesizer,
    checked_examples,
)
from repro.synthesis.problem import SynthesisProblem
from repro.synthesis.result import SynthesisOutcome
from repro.synthesis.stages import SynthesisContext, Trace


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def _trace_lines(trace: Trace) -> List[str]:
    """Render the per-stage spans the walk-through actually recorded."""
    lines = ["Per-stage timing (docs/architecture.md):"]
    for span in trace.spans:
        mark = "" if span.status == "ok" else f"  [{span.status}]"
        lines.append(
            f"  {span.stage}: {span.elapsed_seconds * 1000:.2f} ms{mark}"
        )
    return lines


def explain_problem(problem: SynthesisProblem, max_paths_shown: int = 3) -> str:
    """Steps 3-4 + orphan analysis of an already-built problem."""
    lines: List[str] = []
    graph = problem.domain.graph

    lines.append("Step 3 — WordToAPI map:")
    for node in problem.dep_graph.nodes():
        cands = problem.candidates.get(node.node_id, [])
        shown = ", ".join(
            (c.api_name or c.node_id.split(":", 1)[1]) for c in cands
        )
        lines.append(f"  {node.word!r} -> [{shown}]")

    lines.append("Step 4 — EdgeToPath map:")
    lines.append(
        f"  (virtual root edge): {len(problem.root_paths)} candidate paths"
    )
    for edge in problem.dep_graph.edges():
        gov = problem.dep_graph.node(edge.gov).word
        dep = problem.dep_graph.node(edge.dep).word
        paths = problem.paths_of(edge)
        lines.append(f"  {gov!r} -> {dep!r}: {len(paths)} candidate paths")
        for cp in paths[:max_paths_shown]:
            lines.append(f"      {cp.path.describe(graph)}")
        if len(paths) > max_paths_shown:
            lines.append(f"      ... {len(paths) - max_paths_shown} more")

    orphans = problem.orphan_nodes()
    if orphans:
        names = [problem.dep_graph.node(o).word for o in orphans]
        variants, _ = relocation_variants(problem)
        lines.append(
            f"Orphans (Sec. V-B): {names} -> "
            f"{len(variants)} relocation variant(s)"
        )
        for variant in variants[:2]:
            for orphan in orphans:
                edge = variant.dep_graph.parent_edge(orphan)
                if edge is not None and edge.rel == "reloc":
                    gov = variant.dep_graph.node(edge.gov).word
                    dep = variant.dep_graph.node(orphan).word
                    lines.append(f"  relocate {dep!r} under {gov!r}")
    else:
        lines.append("Orphans (Sec. V-B): none")
    return "\n".join(lines)


def explain_synthesis(
    synthesizer: Synthesizer,
    query: str,
    timeout_seconds: Optional[float] = 20.0,
    examples=None,
    candidates: Optional[int] = None,
) -> Tuple[str, Optional[SynthesisOutcome], Optional[ReproError]]:
    """Synthesize ``query`` once and render the six-step walk-through.

    Returns ``(text, outcome, error)`` with exactly one of ``outcome`` /
    ``error`` set.  The outcome carries this run's cache deltas and wall
    time, as :meth:`Synthesizer.synthesize` would report them (the
    outcome cache is not consulted: a replay has nothing to show).
    Front-end failures (unparseable query, no API candidates, expired
    deadline) propagate; a failure in Steps 5+ is rendered as ``FAILED``
    and returned as ``error``.
    """
    examples = checked_examples(synthesizer.domain, examples)
    ctx = SynthesisContext(
        query=query,
        domain=synthesizer.domain,
        deadline=Deadline(timeout_seconds),
        keep_artifacts=True,
    )
    cache = synthesizer.domain.path_cache
    before = cache.snapshot()
    started = time.monotonic()
    try:
        out, error = synthesizer._run_pipeline(ctx, examples, candidates), None
    except ReproError as exc:
        if "edge_to_path" not in ctx.artifacts:
            raise
        out, error = None, exc
    else:
        out.stats.record_cache_delta(before, cache.snapshot())
        out.elapsed_seconds = time.monotonic() - started

    lines: List[str] = [f"query: {query}", ""]
    lines.append("Step 1 — dependency parsing:")
    lines.append(_indent(ctx.artifacts["parse"].describe()))
    lines.append("Step 2 — query graph pruning:")
    lines.append(_indent(ctx.artifacts["prune"].describe()))
    lines.append(explain_problem(ctx.artifacts["edge_to_path"]))
    lines.append(f"Steps 5+6 — synthesis ({synthesizer.engine.name}):")
    if out is None:
        lines.append(f"  FAILED: {error}")
    else:
        # The engine's own answer: verification may have promoted
        # another candidate since.
        first = out if out.candidates is None else next(
            c for c in out.candidates if c.rank == 1
        )
        seconds = ctx.trace.stage_seconds()
        lines.append(f"  codelet: {first.codelet}")
        lines.append(
            f"  size={first.size} APIs, "
            f"{(seconds['merge'] + seconds['codegen']) * 1000:.1f} ms"
        )
        lines.append(
            "  combinations={combinations} pruned_grammar={pruned_grammar} "
            "pruned_size={pruned_size} merged={merged}".format(
                **out.stats.as_dict()
            )
        )
        if out.candidates is not None:
            lines.extend(_candidate_lines(out))
    lines.extend(_trace_lines(ctx.trace))
    return "\n".join(lines), out, error


def explain_query(
    domain: Domain,
    query: str,
    engine: EngineLike = "dggt",
    timeout_seconds: Optional[float] = 20.0,
    examples=None,
    candidates: Optional[int] = None,
) -> str:
    """The full six-step walk-through for one query, as rendered text.

    ``examples`` (input→output pairs) appends the execution-guided
    verification step: the top-ranked candidates run against every
    example and the walk-through shows each verdict
    (docs/verification.md).  ``candidates`` (K) appends the ranked
    candidate list without examples, and sets the list depth with them.
    """
    text, _out, _error = explain_synthesis(
        Synthesizer(domain, engine=engine), query, timeout_seconds,
        examples, candidates,
    )
    return text


def _candidate_lines(out: SynthesisOutcome) -> List[str]:
    """The ranked-candidate section of the walk-through: the plain list,
    or the execution-guided verification verdicts when examples ran."""
    report = out.verification
    if report is None:
        lines = ["Ranked candidates (Sec. VII-B.4):"]
        lines.extend(f"  rank {c.rank}: {c.codelet}" for c in out.candidates)
        return lines
    lines = [
        "Verification — execution-guided re-ranking:",
        f"  {report.verdicts[0].examples_total} example(s), "
        f"{len(out.candidates)} candidate(s), "
        f"status={report.status}",
    ]
    for verdict in report.verdicts:
        detail = f" — {verdict.detail}" if verdict.detail else ""
        lines.append(
            f"  rank {verdict.rank}: {verdict.verdict} "
            f"({verdict.examples_passed}/{verdict.examples_total})"
            f"{detail}"
        )
        lines.append(f"      {verdict.codelet}")
    action = "promoted" if report.reranked else "kept"
    lines.append(
        f"  {action} rank {report.winner_rank}: {out.candidates[0].codelet}"
    )
    return lines
