"""End-to-end synthesis: domain registration, problem building, the staged
pipeline (:mod:`repro.synthesis.stages`), and the two engines."""

from repro.synthesis.deadline import Deadline
from repro.synthesis.domain import Domain
from repro.synthesis.pipeline import Synthesizer, make_engine
from repro.synthesis.problem import (
    CandidatePath,
    EndpointCandidate,
    SynthesisProblem,
    build_candidates,
    build_problem,
    drop_candidateless,
    start_candidate,
)
from repro.synthesis.explain import explain_problem, explain_query
from repro.synthesis.ranking import RankedCandidate
from repro.synthesis.result import SynthesisOutcome, SynthesisStats
from repro.synthesis.stages import (
    STAGE_NAMES,
    StageLatencyAggregator,
    StageSpan,
    SynthesisContext,
    Trace,
    run_front_end,
    run_stage,
)

__all__ = [
    "Domain",
    "Synthesizer",
    "make_engine",
    "Deadline",
    "SynthesisProblem",
    "build_problem",
    "build_candidates",
    "drop_candidateless",
    "start_candidate",
    "EndpointCandidate",
    "CandidatePath",
    "SynthesisOutcome",
    "SynthesisStats",
    "STAGE_NAMES",
    "SynthesisContext",
    "Trace",
    "StageSpan",
    "StageLatencyAggregator",
    "run_front_end",
    "run_stage",
    "explain_query",
    "explain_problem",
    "RankedCandidate",
]
