"""Grammar-based pruning (paper Sec. V-A).

"Given a set of 'or' edges that share the same non-terminal node, only one
of the 'or' edges should be selected at a time to produce the CGT."  Two
candidate paths form a *conflict paths pair* when merging them would select
two alternatives of one choice rule; any combination containing a conflict
pair is grammar-incorrect and is pruned before the (expensive) merge.

The implementation follows the paper's recipe: merge the candidate paths of
the sibling edges into an all-path prefix structure recording path ids per
edge (that is the :class:`~repro.grammar.path_voted.PathVotedGraph`), find
the conflict "or" edges, expand them into conflict path pairs, and filter
the combinations.  The engine runs the same analysis over interned path
encodings (:func:`~repro.grammar.path_voted.conflict_enc_pairs`) and
filters with one ``(bit, mask)`` record per path.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.grammar.graph import GrammarGraph
from repro.grammar.interning import IntPath, interner_for
from repro.grammar.path_voted import conflict_enc_pairs, conflict_mask_records


def conflict_masks_for(
    graph: GrammarGraph, encs: Sequence[IntPath]
) -> List[Tuple[int, int]]:
    """Per-path ``(bit, mask)`` conflict records for interned encodings.
    A combination conflicts iff, scanning members while accumulating
    bits, a member's mask intersects the accumulated set.  The engine
    takes the same records from the domain's
    :meth:`~repro.grammar.path_cache.PathCache.conflict_masks`, which
    memoizes the pair analysis across queries."""
    pairs = conflict_enc_pairs(interner_for(graph), set(encs))
    return conflict_mask_records(encs, pairs)
