"""The HISyn baseline engine (paper Sec. II; Nan et al., FSE 2020).

Implements the state-of-the-art NLU-driven synthesizer the paper accelerates:
Steps 1-4 come from the shared front end (:mod:`repro.synthesis.problem`);
this module adds the exhaustive Step-5 (PathMerging over every combination)
and Step-6 (smallest CGT -> expression).

Orphan treatment is the paper-described one: "the previous NLU-driven
synthesis algorithm simply regards an orphan node as the child of the root in
the pruned dependency graph.  As a result, the synthesis algorithm would find
all the paths on the grammar graph from the node's candidate APIs to the
grammar root" — which is exactly the path blow-up Table III quantifies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baseline.enumeration import enumerate_best_cgt
from repro.core.cgt import CGT
from repro.errors import SynthesisError, SynthesisTimeout
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import CandidatePath, SynthesisProblem
from repro.synthesis.result import SynthesisOutcome, SynthesisStats
from repro.synthesis.stages import SynthesisContext, synthesize_with


class HISynEngine:
    """Exhaustive-enumeration NLU-driven synthesizer (the baseline)."""

    name = "hisyn"

    def synthesize(
        self,
        problem: SynthesisProblem,
        deadline: Optional[Deadline] = None,
        *,
        ctx: Optional[SynthesisContext] = None,
    ) -> SynthesisOutcome:
        """Steps 5-6 over a pre-built problem: the :func:`search` merge
        stage wrapped in the shared staged pipeline (codegen is engine
        independent).  ``ctx`` (when the Synthesizer passes one) carries
        the deadline, the stats record, and the optional trace."""
        return synthesize_with(self, problem, deadline, ctx)

    def search(
        self,
        problem: SynthesisProblem,
        deadline: Deadline,
        stats: SynthesisStats,
    ) -> CGT:
        """Step 5 — exhaustive PathMerging over every combination."""
        graph = problem.domain.graph

        edge_paths: List[List[CandidatePath]] = [list(problem.root_paths)]
        edge_nodes: List[Tuple[Optional[int], Optional[int]]] = [
            (None, problem.dep_graph.root)
        ]
        orphans = set(problem.orphan_nodes())
        stats.n_orphans = len(orphans)

        for edge in problem.dep_graph.edges():
            paths = problem.paths_of(edge)
            if edge.dep in orphans:
                # Root-attachment: all paths from the grammar start down to
                # the orphan's candidates.
                paths = problem.start_attach_paths(edge.dep)
                edge_nodes.append((None, edge.dep))
            else:
                edge_nodes.append((edge.gov, edge.dep))
            if not paths:
                raise SynthesisError(
                    f"no grammar path serves dependency edge "
                    f"{problem.dep_graph.node(edge.gov).word!r} -> "
                    f"{problem.dep_graph.node(edge.dep).word!r}"
                )
            edge_paths.append(paths)

        stats.n_dep_edges = len(edge_paths) - 1
        stats.n_orig_paths = sum(len(p) for p in edge_paths)
        stats.n_paths_after_reloc = stats.n_orig_paths  # HISyn: no relocation

        try:
            best = enumerate_best_cgt(
                edge_paths, edge_nodes, graph, deadline, stats
            )
        except SynthesisTimeout as exc:
            # Preserve the counters gathered before the budget ran out —
            # Table III reports how far the baseline got.
            exc.partial_stats = stats
            raise
        if best is None:
            raise SynthesisError(
                "no combination of candidate paths merged into a valid CGT "
                f"({stats.n_combinations} combinations examined)"
            )
        return best
