"""Pipeline explanation: render every Fig. 3 artifact for one query.

NL programming lives or dies on trust — when a codelet looks wrong, the
user needs to see *why* the system read the query that way.  This module
renders the full intermediate state: the dependency graph (Step 1), the
pruned graph (Step 2), the WordToAPI map (Step 3), the EdgeToPath sizes and
a sample of candidate paths (Step 4), orphan detection and the relocation
variants (Sec. V-B), and the synthesized codelet with its statistics.

The walk-through is the *real* staged pipeline, not a re-enactment: the
query runs once through :func:`repro.synthesis.stages.run_front_end` with
``keep_artifacts=True``, so the rendered Step 1/Step 2 graphs are the
exact objects the engine consumed, and the closing per-stage timing
section comes from the same :class:`~repro.synthesis.stages.Trace` that
``repro batch --json --trace`` and the server emit.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.orphan import relocation_variants
from repro.errors import ReproError
from repro.synthesis.deadline import Deadline
from repro.synthesis.domain import Domain
from repro.synthesis.pipeline import (
    EngineLike,
    attach_candidates,
    make_engine,
)
from repro.synthesis.problem import SynthesisProblem
from repro.synthesis.result import SynthesisOutcome
from repro.synthesis.stages import SynthesisContext, Trace, run_front_end


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
    Both come from :func:`~repro.synthesis.pipeline.attach_candidates`,
    the step :class:`~repro.synthesis.pipeline.Synthesizer` runs.
    """
    from repro.verify.examples import normalize_examples

    examples = normalize_examples(examples)
    lines: List[str] = [f"query: {query}", ""]

    deadline = (
        Deadline(timeout_seconds)
        if timeout_seconds is not None
        else Deadline.unlimited()
    )
    ctx = SynthesisContext(
        query=query,
        domain=domain,
        deadline=deadline,
        trace=Trace(),
        keep_artifacts=True,
    )
    # Front-end failures (unparseable query, no API candidates, expired
    # deadline) propagate to the caller exactly as before the refactor.
    problem = run_front_end(ctx)

    lines.append("Step 1 — dependency parsing:")
    lines.append(_indent(ctx.artifacts["parse"].describe()))

    lines.append("Step 2 — query graph pruning:")
    lines.append(_indent(ctx.artifacts["prune"].describe()))

    lines.append(explain_problem(problem))

    resolved = make_engine(engine)
    lines.append(f"Steps 5+6 — synthesis ({resolved.name}):")
    try:
        out = resolved.synthesize(problem, ctx=ctx)
    except ReproError as exc:
        lines.append(f"  FAILED: {exc}")
        lines.extend(_trace_lines(ctx.trace))
        return "\n".join(lines)
    lines.append(f"  codelet: {out.codelet}")
    lines.append(
        f"  size={out.size} APIs, {out.elapsed_seconds * 1000:.1f} ms"
    )
    stats = out.stats.as_dict()
    lines.append(
        "  combinations={combinations} pruned_grammar={pruned_grammar} "
        "pruned_size={pruned_size} merged={merged}".format(**stats)
    )
    if examples is not None or candidates is not None:
        attach_candidates(ctx, problem, out, resolved, examples, candidates)
        lines.extend(_candidate_lines(out))
    lines.extend(_trace_lines(ctx.trace))
    return "\n".join(lines)


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
