"""Unit tests for grammar-based pruning (paper Sec. V-A)."""

import pytest

from repro.core.dggt import DggtEngine
from repro.core.dynamic_graph import InternedDynamicGraph
from repro.core.grammar_pruning import conflict_masks_for
from repro.grammar.graph import api_id
from repro.grammar.interning import interner_for
from repro.grammar.path_voted import conflict_mask_records
from repro.grammar.paths import find_paths_between_apis
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import CandidatePath, EndpointCandidate
from repro.synthesis.result import SynthesisStats


def cand(name):
    return EndpointCandidate(node_id=api_id(name), api_name=name)


def cp(graph, src, dst, path_id, index=0):
    paths = find_paths_between_apis(graph, src, dst)
    return CandidatePath(paths[index].with_id(path_id), cand(src), cand(dst))


def conflicts(graph, a, b):
    """Do two candidate paths form a conflict path pair?"""
    path_ints = interner_for(graph).path_ints
    encs = [path_ints(p.path.nodes) for p in (a, b)]
    (bit_a, mask_a), (bit_b, mask_b) = conflict_masks_for(graph, encs)
    assert bool(mask_a & bit_b) == bool(mask_b & bit_a)  # symmetric
    return bool(mask_b & bit_a)


def scan_conflicts(records):
    """The engine's combination filter over ``(bit, mask)`` records: a
    member conflicts when its mask meets the bits accumulated so far."""
    acc = 0
    for bit, mask in records:
        if mask & acc:
            return True
        acc |= bit
    return False


def group_stats(graph, sibling_paths):
    """Run one Case II sibling group (one list of candidate paths per
    child, every path from the same governor) and return its counters."""
    interner = interner_for(graph)
    dyng = InternedDynamicGraph(interner)
    sibling_lists = []
    for child, paths in enumerate(sibling_paths, start=1):
        recs = []
        for path in paths:
            dyng.add_leaf(child, path.dst_candidate)
            enc = interner.path_ints(path.path.nodes)
            recs.append((path, enc, dyng._slot[dyng.key_int(child, enc[-1])]))
        sibling_lists.append((child, recs))
    gov = sibling_paths[0][0].src_candidate
    stats = SynthesisStats()
    DggtEngine()._process_sibling_group(
        dyng, 0, gov, interner.index[gov.node_id], sibling_lists, stats,
        Deadline(),
    )
    return stats


@pytest.fixture
def conflicting_paths(toy_graph):
    """Paths through exclusive pos_expr alternatives: POSITION vs START."""
    return [
        cp(toy_graph, "INSERT", "POSITION", "2.1"),
        cp(toy_graph, "INSERT", "START", "3.1"),
        cp(toy_graph, "INSERT", "STRING", "4.1"),
    ]


class TestConflictPairs:
    def test_exclusive_alternatives_conflict(self, toy_graph, conflicting_paths):
        p_pos, p_start, _p_str = conflicting_paths
        assert conflicts(toy_graph, p_pos, p_start)

    def test_non_conflicting_paths(self, toy_graph, conflicting_paths):
        p_pos, p_start, p_str = conflicting_paths
        assert not conflicts(toy_graph, p_pos, p_str)
        assert not conflicts(toy_graph, p_start, p_str)

    def test_no_paths_no_pairs(self, toy_graph):
        assert conflict_masks_for(toy_graph, []) == []


class TestCombinationFilter:
    def test_combination_conflicts(self):
        records = conflict_mask_records(
            [(1,), (2,), (3,)], frozenset({frozenset({(1,), (2,)})})
        )
        a, b, c = records
        assert scan_conflicts([a, b, c])
        assert scan_conflicts([b, c, a])
        assert not scan_conflicts([a, c])

    def test_prune_combinations(self, toy_graph, conflicting_paths):
        p_pos, p_start, p_str = conflicting_paths
        # (pos, start) takes two pos_expr alternatives; (pos, str),
        # (start, str) and (start, start) do not.
        stats = group_stats(toy_graph, [[p_pos, p_start], [p_start, p_str]])
        assert stats.n_combinations == 4
        assert stats.pruned_by_grammar == 1

    def test_prune_without_conflicts_is_noop(self, toy_graph):
        paths = [cp(toy_graph, "INSERT", "STRING", "2.1")]
        stats = group_stats(toy_graph, [paths])
        assert stats.n_combinations == 1
        assert stats.pruned_by_grammar == 0
        assert stats.n_valid_cgts == 1

    def test_same_alternative_not_a_conflict(self, toy_graph):
        # Two paths through the SAME alternative do not conflict.
        a = cp(toy_graph, "INSERT", "LINESCOPE", "2.1")
        b = cp(toy_graph, "INSERT", "NUMBERTOKEN", "3.1")
        # both pass through iter_expr/cond branches without exclusive picks
        assert not conflicts(toy_graph, a, b)
