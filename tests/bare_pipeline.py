"""The six Fig. 3 stage bodies, called directly: no context, no spans.

:class:`~repro.synthesis.pipeline.Synthesizer` runs the same bodies
through :func:`repro.synthesis.stages.run_stage`, which records a span
per stage.  This bare sequence is the reference that span recording is
measured against (benchmarks/test_trace_overhead.py) and checked to be
invisible against (tests/test_equivalence_property.py).
"""

from __future__ import annotations

from typing import Optional

from repro.core.expression import cgt_to_expression
from repro.errors import SynthesisError
from repro.nlp.parser import parse_query
from repro.nlp.pruning import prune_query_graph
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import (
    SynthesisProblem,
    build_candidates,
    drop_candidateless,
)
from repro.synthesis.result import SynthesisStats


def synthesize_bare(
    domain, engine, query: str, timeout_seconds: Optional[float] = None
):
    """Steps 1-6 for ``query``: ``(expression, size, stats)``.  Raises
    what the stages raise."""
    deadline = Deadline(timeout_seconds)
    pruned = prune_query_graph(parse_query(query), domain.prune_config)
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
    problem = SynthesisProblem(domain, pruned, remaining, None, deadline)
    stats = SynthesisStats()
    cgt = engine.search(problem, deadline, stats)
    graph = domain.graph
    return cgt_to_expression(cgt, graph), cgt.api_count(graph), stats
