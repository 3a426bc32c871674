"""Dynamic grammar graph-based translation — the paper's Algorithm 1.

DGGT replaces HISyn's exhaustive Step-5 with dynamic programming:

1. **Bottom-up dynamic grammar graph generation** — traverse the pruned
   dependency graph from the deepest level up.  An edge without siblings
   (Case I) extends each predecessor's memoized optimal partial CGT by one
   grammar path; sibling edges (Case II) enumerate the combinations of their
   candidate paths *within the level only*, filtered by grammar-based
   pruning (Sec. V-A) and size-based pruning (Sec. V-C), and each surviving
   combination becomes a partial-CGT node.  The combinations are folded
   over prefixes (:func:`fold_siblings`): a grammar conflict drops every
   combination that extends the conflicting prefix at once.
2. **Optimal CGT backtrack** — the node at the grammar start holds the
   optimal CGT; emit the codelet from it.

Per-level work is ``O(p_l^{e_l})``; joining memoized partial CGTs makes the
whole algorithm ``O(Σ_l p_l^{e_l})`` instead of ``O(∏_l p_l^{e_l})``
(Sec. VI).  Orphan node relocation (Sec. V-B) runs first, producing one
problem variant per plausible placement; the smallest CGT across variants
wins.

The engine works in the integer space of the domain's
:class:`~repro.grammar.interning.GraphInterner`: paths are int tuples,
the memo table is :class:`~repro.core.dynamic_graph.InternedDynamicGraph`,
and conflict pruning, merge validity and merged-tree cost are bigint
mask algebra.

Size-based pruning bounds the merged size of a combination
``c = {p_1, ..., p_n}`` (plus the memoized ``min_size`` of each path's
sink, so the pruning is lossless for the full partial-CGT cost)::

    max(size(p_i))  <=  size(c)  <=  sum(size(p_i)) - (n - 1)

— the upper bound because the paths share at least their common governor
API, the lower bound because the merged tree contains every path, the
heaviest one included.  Combinations are merged in ascending lower-bound
order, and the rest are skipped once a lower bound exceeds the exact
total of a merged *valid* combination.

All three optimizations are individually toggleable via :class:`DggtConfig`
for the ablation study (research question Q3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cgt import CGT
from repro.core.dynamic_graph import VIRTUAL, InternedDynamicGraph
from repro.core.orphan import relocation_variants
from repro.errors import SynthesisError, SynthesisTimeout
from repro.grammar.interning import IntPath, interner_for
from repro.grammar.path_cache import PathCache
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import (
    CandidatePath,
    EndpointCandidate,
    PairGroups,
    SynthesisProblem,
)
from repro.synthesis.result import SynthesisOutcome, SynthesisStats
from repro.synthesis.stages import SynthesisContext, synthesize_with

#: One usable sibling path as the Case II fold reads it: (the path, the
#: predecessor's DP slot, conflict bit, conflict mask, path size, the
#: predecessor's min size, then the path's ``enc_masks`` — em, nm, dm,
#: onm, nodes — and its sink bit).
IntRec = Tuple[CandidatePath, int, int, int, int, int, int, int, int, int, int, int]

#: A prefix of one pick per sibling list, and a surviving combination
#: (the full-length prefixes): (lower, upper, records, pred_total, then
#: the ORs of the records' em, nm, dm, onm, nodes and sink bits, then
#: the ORed conflict bits and the largest path size).
Prefix = Tuple[int, int, Tuple[IntRec, ...], int, int, int, int, int, int, int, int, int]


@dataclass(frozen=True)
class DggtConfig:
    """Optimization toggles (all on = the paper's full system)."""

    grammar_pruning: bool = True
    size_pruning: bool = True
    orphan_relocation: bool = True


#: Case II prefixes built, and sorted survivors merged, between two
#: cooperative deadline checks.
_DEADLINE_STRIDE = 256


def fold_siblings(
    rec_lists: Sequence[Sequence[IntRec]],
    src_weight: int,
    deadline: Deadline,
) -> Tuple[List[Prefix], int, int]:
    """Case II's sibling product folded over prefixes: ``(survivors,
    combinations, grammar-pruned)``.

    The combinations of one record per list are walked in product order,
    one list at a time, each prefix carrying its bounds, predecessor
    total and mask ORs, so a surviving combination costs one extension
    of its prefix.  A record whose conflict mask meets the prefix's
    accumulated conflict bits makes every combination that extends it
    grammar-conflicting: the whole subtree, ∏(lengths of the later
    lists) combinations, is counted pruned at once and never built.
    Survivors come out in product order, as the unfolded enumeration
    produced them.  ``src_weight`` (1 when the governor is an API) is
    what each extra path's shared source takes off the upper bound."""
    n_combinations = subtree = prod(map(len, rec_lists))
    # The empty prefix: its "upper" is set so the first record's
    # extension reads size + pred_size.
    states: List[Prefix] = [(0, src_weight, (), 0, 0, 0, 0, 0, 0, 0, 0, 0)]
    n_pruned = 0
    built = 0
    next_check = _DEADLINE_STRIDE
    for recs in rec_lists:
        subtree //= len(recs)  # combinations below one record of recs
        extended: List[Prefix] = []
        append = extended.append
        n_recs = len(recs)
        for (_lower, upper, combo, pred_total,
             fem, fnm, fdm, fonm, nodes, sinks, acc, max_size) in states:
            for rec in recs:
                if rec[3] & acc:
                    n_pruned += subtree
                    continue
                (_cp, _slot, bit, _mask, size, pred_size,
                 em, nm, dm, onm, rec_nodes, sink) = rec
                total = pred_total + pred_size
                top = size if size > max_size else max_size
                append((
                    top + total,
                    upper + size + pred_size - src_weight,
                    combo + (rec,),
                    total,
                    fem | em, fnm | nm, fdm | dm, fonm | onm,
                    nodes | rec_nodes, sinks | sink,
                    acc | bit, top,
                ))
            built += n_recs
            if built >= next_check:
                deadline.check()
                next_check = built + _DEADLINE_STRIDE
        states = extended
    return states, n_combinations, n_pruned


class DggtEngine:
    """The paper's contribution: near real-time NLU-driven synthesis."""

    name = "dggt"

    def __init__(self, config: Optional[DggtConfig] = None):
        self.config = config or DggtConfig()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

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
        """Step 5 — the dynamic program over relocation variants."""
        graph = problem.domain.graph
        stats.n_dep_edges = len(problem.dep_graph.edges()) + 1
        # "# of orig. path" (Table III) is the path count the *baseline*
        # faces: orphan edges carry the full root-attachment path sets
        # there, not the zero paths our orphan detection sees.
        stats.n_orig_paths = problem.total_paths() + sum(
            problem.start_attach_count(orphan)
            for orphan in problem.orphan_nodes()
        )

        if self.config.orphan_relocation:
            variants, n_orphans = relocation_variants(problem)
        else:
            variants, n_orphans = [problem], len(problem.orphan_nodes())
        stats.n_orphans = n_orphans
        stats.n_reloc_variants = len(variants)

        best: Optional[CGT] = None
        best_key = None
        best_variant: Optional[SynthesisProblem] = None
        failures: List[str] = []

        def attempt(variant: SynthesisProblem) -> None:
            nonlocal best, best_key, best_variant
            deadline.check()
            try:
                cgt, size, rank = self._synthesize_variant(
                    variant, deadline, stats
                )
            except SynthesisTimeout:
                raise
            except SynthesisError as exc:
                failures.append(str(exc))
                return
            _w, _n_edges, edge_key = cgt.sort_key(graph)
            key = (size, rank, edge_key)
            if best_key is None or key < best_key:
                best, best_key, best_variant = cgt, key, variant

        for variant in variants:
            attempt(variant)
        if best is None and problem not in variants:
            # Every relocation failed: fall back to the unrelocated problem
            # (HISyn's root-attachment treatment), so relocation never
            # loses solutions the baseline can find.
            attempt(problem)

        if best is None or best_variant is None:
            detail = failures[0] if failures else "no variant synthesized"
            raise SynthesisError(f"DGGT failed on all variants: {detail}")
        stats.n_paths_after_reloc = best_variant.total_paths()
        return best

    # ------------------------------------------------------------------
    # One dependency-graph variant
    # ------------------------------------------------------------------

    def _synthesize_variant(
        self,
        problem: SynthesisProblem,
        deadline: Deadline,
        stats: SynthesisStats,
    ) -> Tuple[CGT, int, int]:
        graph = problem.domain.graph
        interner = interner_for(graph)
        index = interner.index
        dep = problem.dep_graph
        dyng = InternedDynamicGraph(interner)
        orphans = set(problem.orphan_nodes())
        cache = problem.cache

        # Bottom-up traversal: deepest governors first (Algorithm 1 line 4).
        order = sorted(
            (n.node_id for n in dep.nodes()),
            key=lambda n: (-dep.depth(n), n),
        )
        for node_id in order:
            effective = [
                e for e in dep.children(node_id) if e.dep not in orphans
            ]
            if not effective:
                for cand in problem.candidates.get(node_id, ()):
                    dyng.add_leaf(node_id, cand)
                continue
            if len(effective) == 1:
                edge = effective[0]
                self._case_one(
                    dyng, node_id, edge.dep, problem.groups_of(edge), stats
                )
            else:
                gov_cands = [
                    c
                    for c in problem.candidates.get(node_id, ())
                    if not c.is_literal
                ]
                entries = {
                    e.dep: problem.paths_of(e) for e in effective
                }
                self._case_two(
                    dyng, node_id, gov_cands, entries, stats, deadline, cache
                )
            covered = False
            for c in problem.candidates.get(node_id, ()):
                c_int = index.get(c.node_id)
                if c_int is not None and dyng.has(node_id, c_int):
                    covered = True
                    break
            if not covered:
                word = dep.node(node_id).word
                raise SynthesisError(
                    f"no partial CGT covers the subtree of {word!r}"
                )

        # Virtual root level: the dependency root plus any orphan that
        # relocation could not place, all governed by the grammar start.
        virtual_entries: Dict[int, List[CandidatePath]] = {
            dep.root: list(problem.root_paths)
        }
        for orphan in sorted(orphans):
            virtual_entries[orphan] = problem.start_attach_paths(orphan)

        if len(virtual_entries) == 1:
            self._case_one(dyng, VIRTUAL, dep.root, problem.root_groups, stats)
        else:
            start_cand = EndpointCandidate(node_id=graph.start_id)
            self._case_two(
                dyng,
                VIRTUAL,
                [start_cand],
                virtual_entries,
                stats,
                deadline,
                cache,
            )

        if not dyng.has(VIRTUAL, interner.start):
            raise SynthesisError("no CGT reaches the grammar start symbol")
        edges, bindings, size, rank = dyng.optimal(VIRTUAL, interner.start)
        cgt = CGT(edges, bindings)
        if not cgt.is_grammar_valid(graph):
            # Cross-level prefix overlap (the pathology Sec. V-B discusses)
            # can, in rare cases, make the joined CGT invalid.
            raise SynthesisError(
                "joined optimal CGT is not grammar-valid "
                "(cross-level prefix overlap)"
            )
        return cgt, size, rank

    # ------------------------------------------------------------------
    # Case I: an edge without siblings (Algorithm 1 lines 5-11)
    # ------------------------------------------------------------------

    @staticmethod
    def _case_one(
        dyng: InternedDynamicGraph,
        gov_dep_id: int,
        child_dep_id: int,
        groups: PairGroups,
        stats: SynthesisStats,
    ) -> None:
        """Offer each endpoint pair's paths lightest first, stopping at
        the first that cannot beat the target slot.

        Within one pair the predecessor slot, the target slot and the
        rank are fixed, and the target only improves as offers land, so
        every later path of the pair (as heavy or heavier, same rank)
        would lose too; ``docs/algorithms.md`` has the argument.  A path
        ``offer_path`` turns down for a binding conflict or an invalid
        join does not stop the walk.  The counters still count every
        path whose predecessor slot exists."""
        offer_path = dyng.offer_path
        slot_get = dyng._slot.get
        sizes = dyng._size
        ranks = dyng._rank
        n = dyng.n
        base = (child_dep_id + 1) * n
        gov_base = (gov_dep_id + 1) * n
        offered = 0
        for group in groups:
            first = group[0]
            pred_slot = slot_get(base + first.enc[-1])
            if pred_slot is None:
                continue
            offered += len(group)
            pred_size = sizes[pred_slot]
            rank = first.src_candidate.rank + ranks[pred_slot]
            target = gov_base + first.enc[0]
            for cp in group:
                slot = slot_get(target)
                if slot is not None:
                    size = cp.size + pred_size
                    if size > sizes[slot] or (
                        size == sizes[slot] and rank > ranks[slot]
                    ):
                        break
                offer_path(gov_dep_id, cp, cp.enc, cp.size, pred_slot)
        stats.n_combinations += offered
        stats.n_merged += offered
        stats.n_valid_cgts += offered

    # ------------------------------------------------------------------
    # Case II: sibling edges (Algorithm 1 lines 12-22)
    # ------------------------------------------------------------------

    def _case_two(
        self,
        dyng: InternedDynamicGraph,
        gov_dep_id: int,
        gov_candidates: Sequence[EndpointCandidate],
        entries: Dict[int, List[CandidatePath]],
        stats: SynthesisStats,
        deadline: Deadline,
        cache: PathCache,
    ) -> None:
        child_ids = sorted(entries)
        index = dyng.interner.index
        slot_get = dyng._slot.get
        n = dyng.n
        for gov_cand in gov_candidates:
            gov_int = index.get(gov_cand.node_id)
            if gov_int is None:
                continue  # no grammar path can start at a non-grammar node
            sibling_lists: List[Tuple[int, List[Tuple[CandidatePath, IntPath, int]]]] = []
            viable = True
            for child in child_ids:
                base = (child + 1) * n
                usable: List[Tuple[CandidatePath, IntPath, int]] = []
                for cp in entries[child]:
                    enc = cp.enc
                    if enc[0] != gov_int:
                        continue
                    pred_slot = slot_get(base + enc[-1])
                    if pred_slot is None:
                        continue
                    usable.append((cp, enc, pred_slot))
                if not usable:
                    viable = False
                    break
                sibling_lists.append((child, usable))
            if not viable:
                continue
            self._process_sibling_group(
                dyng, gov_dep_id, gov_cand, gov_int, sibling_lists, stats,
                deadline, cache,
            )

    def _process_sibling_group(
        self,
        dyng: InternedDynamicGraph,
        gov_dep_id: int,
        gov_cand: EndpointCandidate,
        gov_int: int,
        sibling_lists: Sequence[Tuple[int, List[Tuple[CandidatePath, IntPath, int]]]],
        stats: SynthesisStats,
        deadline: Deadline,
        cache: PathCache,
    ) -> None:
        interner = dyng.interner
        all_encs = [
            rec[1] for _child, recs in sibling_lists for rec in recs
        ]
        if self.config.grammar_pruning:
            mask_records = cache.conflict_masks(all_encs)
        else:
            mask_records = [(0, 0)] * len(all_encs)

        # One IntRec per usable path; predecessor sizes read straight off
        # the DP arrays (stable mid-group — offers only target the
        # governor's level).
        enc_masks = interner.enc_masks
        pred_size = dyng._size
        rec_lists: List[List[IntRec]] = []
        flat = 0
        for _child, recs in sibling_lists:
            full: List[IntRec] = []
            for cp, enc, pred_slot in recs:
                bit, mask = mask_records[flat]
                flat += 1
                full.append(
                    (cp, pred_slot, bit, mask, cp.size, pred_size[pred_slot],
                     *enc_masks(enc), 1 << enc[-1])
                )
            rec_lists.append(full)

        src_weight = 1 if interner.is_api[gov_int] else 0
        survivors, n_combinations, n_pruned = fold_siblings(
            rec_lists, src_weight, deadline
        )
        stats.n_combinations += n_combinations
        stats.pruned_by_grammar += n_pruned
        # By the Sec. V-C (lower, upper) bounds; stable, so equal bounds
        # merge in product order.
        survivors.sort(key=itemgetter(0, 1))

        size_pruning = self.config.size_pruning
        gov_rank = gov_cand.rank
        best_total: Optional[int] = None
        # A merge is valid (the ``CGT.is_grammar_valid`` of the fused
        # paths) when the edge union is a single-rooted tree taking at
        # most one alternative per choice non-terminal: exactly one root
        # means the node count exceeds the distinct-child count by one,
        # |E| == |V| - 1 then forces one parent per child, and a doubled
        # choice alternative raises the taken or-edge popcount above the
        # taken choice non-terminal popcount.  Its cost is the weight of
        # every merged node except the sinks (carried by their memo
        # slots) and the source, which counts 1 when it is an API.  The
        # fold hands over every mask already ORed, so the check is O(1).
        or_mask = interner.or_edge_mask
        weight = interner.weight
        weight_mask = interner.weight_mask
        src_bit = 1 << gov_int
        src_api = interner.is_api[gov_int]
        for idx, survivor in enumerate(survivors):
            if idx % _DEADLINE_STRIDE == 0:
                deadline.check()
            (lower, _upper, combo, pred_total,
             fem, fnm, fdm, fonm, nodes, sinks, _acc, _max) = survivor
            if (
                size_pruning
                and best_total is not None
                and lower > best_total
            ):
                stats.pruned_by_size += len(survivors) - idx
                break
            stats.n_merged += 1
            pn = fnm.bit_count()
            if (
                not fem
                or pn - fdm.bit_count() != 1
                or fem.bit_count() != pn - 1
                or (fem & or_mask).bit_count() != fonm.bit_count()
            ):
                continue  # reconvergent or grammar-conflicting merge
            rem = nodes & ~sinks & ~src_bit & weight_mask
            tree_cost = 0
            while rem:
                low = rem & -rem
                tree_cost += weight[low.bit_length() - 1]
                rem ^= low
            if src_api and not (sinks & src_bit):
                tree_cost += 1
            created = dyng.add_pcgt(
                gov_dep_id,
                gov_int,
                (fem, fdm, fonm),
                [rec[0] for rec in combo],
                [rec[1] for rec in combo],
                tree_cost,
                gov_rank,
            )
            if not created:
                continue  # binding conflict or cross-level invalidity
            stats.n_valid_cgts += 1
            total = tree_cost + pred_total
            if best_total is None or total < best_total:
                best_total = total
