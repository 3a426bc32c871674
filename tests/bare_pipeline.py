"""The six Fig. 3 stage functions, called directly: no context, no spans.

:class:`~repro.synthesis.pipeline.Synthesizer` runs the same functions
through :func:`repro.synthesis.stages.run_stage`, which records a span
per stage.  This bare sequence is the reference that span recording is
measured against (benchmarks/test_trace_overhead.py) and checked to be
invisible against (tests/test_equivalence_property.py).
"""

from __future__ import annotations

from typing import Optional

from repro.nlp.parser import parse_query
from repro.nlp.pruning import prune_query_graph
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import SynthesisProblem
from repro.synthesis.result import SynthesisStats
from repro.synthesis.stages import codegen, word_to_api


def synthesize_bare(
    domain, engine, query: str, timeout_seconds: Optional[float] = None
):
    """Steps 1-6 for ``query``: ``(expression, size, stats)``.  Raises
    what the stages raise."""
    deadline = Deadline(timeout_seconds)
    pruned = prune_query_graph(parse_query(query), domain.prune_config)
    pruned, candidates = word_to_api(domain, pruned, query)
    problem = SynthesisProblem(domain, pruned, candidates, None, deadline)
    stats = SynthesisStats()
    cgt = engine.search(problem, deadline, stats)
    outcome = codegen(query, engine.name, domain.graph, cgt, stats)
    return outcome.expression, outcome.size, stats
