"""Unit tests for the merged-tree cost behind size-based pruning
(paper Sec. V-C), computed by the engine's sibling-group merge."""

from repro.core.dggt import DggtEngine
from repro.core.dynamic_graph import InternedDynamicGraph
from repro.grammar.graph import api_id
from repro.grammar.interning import interner_for
from repro.grammar.path_cache import PathCache
from repro.grammar.paths import find_paths_between_apis
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import CandidatePath, EndpointCandidate
from repro.synthesis.result import SynthesisStats


def cand(name):
    return EndpointCandidate(node_id=api_id(name), api_name=name)


def cp(graph, src, dst, path_id):
    path = find_paths_between_apis(graph, src, dst)[0]
    return CandidatePath(path.with_id(path_id), cand(src), cand(dst))


def merge_group(graph, combo, subtrees=()):
    """Merge one combination as a sibling group and return the size of
    the resulting partial CGT.  Each child is an API leaf (min_size 1),
    extended first by the path in ``subtrees`` that starts at it, if
    any.  The group runs over a new ``PathCache``, the cache a Domain on
    ``graph`` holds."""
    interner = interner_for(graph)
    dyng = InternedDynamicGraph(interner)
    below = {sub.src: sub for sub in subtrees}
    sibling_lists = []
    for child, path in enumerate(combo, start=1):
        sub = below.get(path.dst)
        if sub is None:
            dyng.add_leaf(child, path.dst_candidate)
        else:
            grandchild = child + len(combo)
            dyng.add_leaf(grandchild, sub.dst_candidate)
            sub_enc = interner.path_ints(sub.path.nodes)
            dyng.offer_path(
                child, sub, sub_enc,
                dyng._slot[dyng.key_int(grandchild, sub_enc[-1])],
            )
        enc = interner.path_ints(path.path.nodes)
        slot = dyng._slot[dyng.key_int(child, enc[-1])]
        sibling_lists.append((child, [(path, enc, slot)]))
    gov = combo[0].src_candidate
    gov_int = interner.index[gov.node_id]
    DggtEngine()._process_sibling_group(
        dyng, 0, gov, gov_int, sibling_lists, SynthesisStats(), Deadline(),
        PathCache(graph),
    )
    return dyng.optimal(0, gov_int)[2]


def merged_tree_cost(graph, combo):
    """The tree cost of merging ``combo`` over API leaves: the merged
    size minus the leaves' min_size of 1 each."""
    return merge_group(graph, combo) - len(combo)


class TestBounds:
    def test_pred_sizes_added(self, toy_graph):
        # The same merge over a CONTAINS child whose memoized subtree
        # already holds CONTAINS -> NUMBERTOKEN (size 1 + leaf 1).
        combo = [
            cp(toy_graph, "INSERT", "STRING", "2.1"),
            cp(toy_graph, "INSERT", "CONTAINS", "3.1"),
        ]
        sub = cp(toy_graph, "CONTAINS", "NUMBERTOKEN", "4.1")
        base = merge_group(toy_graph, combo)
        heavier = merge_group(toy_graph, combo, [sub])
        assert heavier == base + 1


class TestExactCost:
    def test_shared_prefix_deduplicated(self, toy_graph):
        # INSERT->LINESCOPE and INSERT->NUMBERTOKEN share INSERT and
        # ITERATIONSCOPE; sinks excluded.
        combo = [
            cp(toy_graph, "INSERT", "LINESCOPE", "2.1"),
            cp(toy_graph, "INSERT", "NUMBERTOKEN", "3.1"),
        ]
        # APIs excluding sinks: INSERT, ITERATIONSCOPE, CONTAINS
        assert merged_tree_cost(toy_graph, combo) == 3

    def test_single_path_cost(self, toy_graph):
        combo = [cp(toy_graph, "INSERT", "STRING", "2.1")]
        assert merged_tree_cost(toy_graph, combo) == 1  # INSERT only
