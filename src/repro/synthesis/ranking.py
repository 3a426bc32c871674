"""Ranked candidate expressions (paper Sec. VII-B.4).

"The technique ... can be integrated into an IDE, offering a list of ranked
candidate expressions for the programmer to choose when she types in her
intent in natural language."  This module produces that list.

Strategy: the top-1 comes from the engine as usual.  Lower ranks come from
*alternative exclusion* (:func:`alternative_outcomes`): for each
dependency node in turn, re-synthesize with the endpoint the rank-1 CGT
bound it to excluded — cheap (at most one small synthesis per node instead
of a k-best dynamic program).  Walking every node, not just the root, means
ambiguity anywhere in the query (an operation synonym, a literal that could
fill two slots) yields a distinct candidate.  Results are deduplicated by
codelet.  This is the only candidate generator: ``repro --candidates``/
``--top``, ``Synthesizer.synthesize(candidates=K)``, execution-guided
verification (:mod:`repro.verify`) and ``repro --explain`` all reach it
through :func:`repro.synthesis.pipeline.attach_candidates`.

``score`` is the grammar-graph cost score ``1 / (1 + size)`` — the
quantity the engine's optimal-CGT search maximizes, renormalized to
(0, 1] so downstream consumers can compare candidates without knowing
the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, SynthesisTimeout
from repro.grammar.paths import PathSearchLimits
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import SynthesisProblem

#: Per-edge path cap for alternative (exclusion) re-syntheses.  Excluding
#: the rank-1 endpoint can strip the pruning that made the original merge
#: cheap — measured blowups reach ~10^6 combinations (~400ms) on queries
#: whose normal merge is sub-millisecond.  Since every useful alternative
#: binds near-optimal (short) paths, capping the per-edge fan-in keeps
#: them while cutting the degenerate tail; the candidate list is
#: explicitly best-effort.
ALTERNATIVE_MAX_PATHS_PER_EDGE = 6


def cost_score(size: int) -> float:
    """The (0, 1] grammar-graph cost score of a codelet of ``size`` APIs."""
    return 1.0 / (1.0 + size)


def _alternative_limits(limits: PathSearchLimits) -> PathSearchLimits:
    """``limits`` with the per-edge path cap tightened for exclusion
    re-synthesis (no-op when already at or below the cap)."""
    if limits.max_paths_per_edge <= ALTERNATIVE_MAX_PATHS_PER_EDGE:
        return limits
    return PathSearchLimits(
        max_path_len=limits.max_path_len,
        max_paths=limits.max_paths,
        max_visits=limits.max_visits,
        max_paths_per_edge=ALTERNATIVE_MAX_PATHS_PER_EDGE,
        max_extra_len=limits.max_extra_len,
    )


@dataclass(frozen=True)
class RankedCandidate:
    """One entry of the IDE-style suggestion list."""

    rank: int
    codelet: str
    size: int
    elapsed_seconds: float
    score: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "codelet": self.codelet,
            "size": self.size,
            "score": round(
                self.score if self.score else cost_score(self.size), 6
            ),
        }


def _without_candidate(
    problem: SynthesisProblem,
    node_id: str,
    drop: Sequence[str],
    limits: PathSearchLimits,
) -> Optional[SynthesisProblem]:
    """A copy of the problem where dependency node ``node_id`` may no
    longer resolve to any endpoint in ``drop``; None when no candidates
    remain."""
    remaining = [
        c
        for c in problem.candidates.get(node_id, [])
        if c.node_id not in drop
    ]
    if not remaining:
        return None
    return SynthesisProblem(
        problem.domain,
        problem.dep_graph.copy(),
        {**problem.candidates, node_id: remaining},
        limits,
        problem.deadline,
        # Safe to share across limits: the overlay holds *raw* (uncapped)
        # pair results; per-edge caps are applied per problem.
        path_cache=problem._path_cache,
    )


def alternative_outcomes(
    problem: SynthesisProblem,
    first,
    engine,
    deadline: Deadline,
    k: int,
) -> List[Any]:
    """Up to ``k`` engine outcomes for one built problem, best first.

    ``first`` is the engine outcome already synthesized for ``problem``
    (rank 1).  Lower ranks come from per-node candidate exclusion: for
    each dependency node in turn, re-synthesize with the endpoint the
    rank-1 CGT bound that node to excluded, keeping every distinct
    codelet.  The walk is bounded by ``deadline`` — alternatives are
    best-effort, partial lists are normal — and costs at most one extra
    engine run per dependency node.
    """
    outcomes: List[Any] = [first]
    if k <= 1:
        return outcomes
    seen = {first.codelet}
    used_nodes = set(first.cgt.nodes())
    limits = _alternative_limits(problem.limits)
    for node in problem.dep_graph.nodes():
        if len(outcomes) >= k or deadline.expired:
            break
        node_id = node.node_id
        candidates = problem.candidates.get(node_id, [])
        if len(candidates) <= 1:
            continue
        used = [c for c in candidates if c.node_id in used_nodes]
        if not used:
            continue
        clone = _without_candidate(
            problem, node_id, (used[0].node_id,), limits=limits
        )
        if clone is None:
            continue
        try:
            alternative = engine.synthesize(clone, deadline)
        except SynthesisTimeout:
            break
        except ReproError:
            continue
        if alternative.codelet not in seen:
            seen.add(alternative.codelet)
            outcomes.append(alternative)
    return outcomes


def outcomes_to_candidates(outcomes: Sequence[Any]) -> Tuple[RankedCandidate, ...]:
    """Render engine outcomes (best first) as :class:`RankedCandidate`
    records with 1-based ranks."""
    return tuple(
        RankedCandidate(
            rank=index + 1,
            codelet=outcome.codelet,
            size=outcome.size,
            elapsed_seconds=outcome.elapsed_seconds,
            score=cost_score(outcome.size),
        )
        for index, outcome in enumerate(outcomes)
    )
