"""The unfolded Case II: every sibling combination built with
``itertools.product``, then checked and sized one at a time.

This is the loop the DGGT engine ran before its sibling product was
folded over prefixes (``repro.core.dggt.fold_siblings``).  It is kept
as the oracle for the fold: :func:`reference_survivors` enumerates the
same records the fold reads, and :class:`ReferenceDggtEngine` runs the
whole engine with the unfolded loop in place of the fold.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Sequence, Tuple

from repro.core.dggt import DggtEngine, IntRec, Prefix


def reference_survivors(
    rec_lists: Sequence[Sequence[IntRec]], src_weight: int
) -> Tuple[List[Prefix], int, int]:
    """``fold_siblings``' result, one combination at a time: survivors
    in product order, the combination count and the grammar-pruned
    count.  A combination conflicts when a record's conflict mask meets
    the conflict bits of the records before it."""
    survivors: List[Prefix] = []
    count = 0
    pruned = 0
    for combo in product(*rec_lists):
        count += 1
        acc = 0
        conflict = False
        for rec in combo:
            if rec[3] & acc:
                conflict = True
                break
            acc |= rec[2]
        if conflict:
            pruned += 1
            continue
        pred_total = sum(rec[5] for rec in combo)
        max_size = max(rec[4] for rec in combo)
        size_sum = sum(rec[4] for rec in combo)
        masks = [0] * 6
        for rec in combo:
            for i, mask in enumerate(rec[6:12]):
                masks[i] |= mask
        survivors.append((
            max_size + pred_total,
            size_sum - (len(combo) - 1) * src_weight + pred_total,
            combo,
            pred_total,
            *masks,
            acc,
            max_size,
        ))
    return survivors, count, pruned


class ReferenceDggtEngine(DggtEngine):
    """The DGGT engine with Case II's sibling groups merged by the
    unfolded product loop (conflict check, bounds and mask ORs per
    combination)."""

    def _process_sibling_group(
        self, dyng, gov_dep_id, gov_cand, gov_int, sibling_lists, stats,
        deadline, cache,
    ) -> None:
        interner = dyng.interner
        all_encs = [rec[1] for _child, recs in sibling_lists for rec in recs]
        if self.config.grammar_pruning:
            mask_records = cache.conflict_masks(all_encs)
            check_conflicts = any(mask for _bit, mask in mask_records)
        else:
            mask_records = [(0, 0)] * len(all_encs)
            check_conflicts = False

        enc_masks = interner.enc_masks
        rec_lists = []
        flat = 0
        for _child, recs in sibling_lists:
            full = []
            for cp, enc, pred_slot in recs:
                bit, mask = mask_records[flat]
                flat += 1
                em, nm, dm, onm, nm_all = enc_masks(enc)
                full.append(
                    (cp, enc, pred_slot, bit, mask, cp.size,
                     em, nm, dm, onm, nm_all, 1 << enc[-1])
                )
            rec_lists.append(full)

        survivors = []
        count = 0
        for combo in product(*rec_lists):
            count += 1
            if check_conflicts:
                acc = 0
                conflict = False
                for rec in combo:
                    if rec[4] & acc:
                        conflict = True
                        break
                    acc |= rec[3]
                if conflict:
                    stats.pruned_by_grammar += 1
                    continue
            survivors.append(combo)
        stats.n_combinations += count

        pred_size = dyng._size
        src_weight = 1 if interner.is_api[gov_int] else 0
        sized = []
        for combo in survivors:
            pred_total = 0
            max_size = 0
            size_sum = 0
            for rec in combo:
                pred_total += pred_size[rec[2]]
                size = rec[5]
                size_sum += size
                if size > max_size:
                    max_size = size
            lower = max_size + pred_total
            upper = size_sum - (len(combo) - 1) * src_weight + pred_total
            sized.append((lower, upper, combo, pred_total))

        sized.sort(key=lambda item: (item[0], item[1]))
        best_total: Optional[int] = None
        or_mask = interner.or_edge_mask
        weight = interner.weight
        weight_mask = interner.weight_mask
        src_bit = 1 << gov_int
        src_api = interner.is_api[gov_int]
        for idx, (lower, _upper, combo, pred_total) in enumerate(sized):
            if (
                self.config.size_pruning
                and best_total is not None
                and lower > best_total
            ):
                stats.pruned_by_size += len(sized) - idx
                break
            stats.n_merged += 1
            fem = fnm = fdm = fonm = nodes = sinks = 0
            for rec in combo:
                fem |= rec[6]
                fnm |= rec[7]
                fdm |= rec[8]
                fonm |= rec[9]
                nodes |= rec[10]
                sinks |= rec[11]
            pn = fnm.bit_count()
            if (
                not fem
                or pn - fdm.bit_count() != 1
                or fem.bit_count() != pn - 1
                or (fem & or_mask).bit_count() != fonm.bit_count()
            ):
                continue
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
                [rec[2] for rec in combo],
                tree_cost,
                gov_cand.rank,
            )
            if not created:
                continue
            stats.n_valid_cgts += 1
            total = tree_cost + pred_total
            if best_total is None or total < best_total:
                best_total = total
