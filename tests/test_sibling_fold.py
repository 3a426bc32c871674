"""The Case II fold against the unfolded product loop it replaced.

``fold_siblings`` walks the sibling lists over prefixes and prunes a
conflicting record's whole subtree at once; the reference
(``tests/reference_case_two.py``) builds every combination and checks
each on its own.  They must agree on the survivor sequence (order,
bounds, predecessor total and mask ORs) and on both counters, on random
sibling groups and through the whole engine.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dggt import DggtConfig, DggtEngine, fold_siblings
from repro.errors import SynthesisError, SynthesisTimeout
from repro.eval.synthetic import make_synthetic_domain, make_synthetic_problem
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import build_problem
from tests.reference_case_two import ReferenceDggtEngine, reference_survivors

_SMALL = st.integers(min_value=0, max_value=6)
_MASK = st.integers(min_value=0, max_value=(1 << 10) - 1)
_CONFLICT = st.integers(min_value=0, max_value=15)

#: One record's random fields: conflict bit and mask, size, predecessor
#: size, and the five path masks plus the sink bit.
_RECORD = st.tuples(
    _CONFLICT, _CONFLICT, _SMALL, _SMALL,
    _MASK, _MASK, _MASK, _MASK, _MASK, _MASK,
)
_GROUP = st.lists(
    st.lists(_RECORD, min_size=1, max_size=5), min_size=1, max_size=4
)


def _rec_lists(group, grammar_pruning):
    """IntRecs from random fields; each record's path is a unique
    label so the survivor sequences compare record by record.  With
    grammar pruning off the engine reads every conflict record as
    ``(0, 0)``."""
    out = []
    for i, fields in enumerate(group):
        recs = []
        for j, (bit, mask, *rest) in enumerate(fields):
            if not grammar_pruning:
                bit = mask = 0
            recs.append((f"{i}.{j}", i * 10 + j, bit, mask, *rest))
        out.append(recs)
    return out


class TestFoldMatchesProduct:
    @pytest.mark.parametrize("grammar_pruning", [True, False])
    @given(group=_GROUP, src_weight=st.integers(min_value=0, max_value=1))
    @settings(max_examples=300, deadline=None)
    def test_survivors_and_counters(self, grammar_pruning, group, src_weight):
        rec_lists = _rec_lists(group, grammar_pruning)
        folded = fold_siblings(rec_lists, src_weight, Deadline())
        assert folded == reference_survivors(rec_lists, src_weight)

    def test_conflicting_subtree_counted_in_bulk(self):
        # Record a.1 conflicts with a.0's bit; every combination under
        # (a.0, a.1) — 3 of them — is pruned without being built.
        blank = (0,) * 8
        rec_lists = [
            [("a.0", 0, 1, 0, *blank)],
            [("a.1", 1, 2, 1, *blank), ("b.1", 2, 4, 0, *blank)],
            [(f"c.{k}", 3 + k, 0, 0, *blank) for k in range(3)],
        ]
        survivors, combinations, pruned = fold_siblings(
            rec_lists, 1, Deadline()
        )
        assert (combinations, pruned, len(survivors)) == (6, 3, 3)
        assert [[rec[0] for rec in s[2]] for s in survivors] == [
            ["a.0", "b.1", f"c.{k}"] for k in range(3)
        ]


# ---------------------------------------------------------------------------
# Engine level: the fold inside DGGT against the unfolded engine
# ---------------------------------------------------------------------------

_CONFIGS = [
    DggtConfig(grammar_pruning=g, size_pruning=s)
    for g, s in product((True, False), repeat=2)
]

_TOY_QUERIES = [
    " ".join((verb, obj) + tails)
    for verb in ("insert", "delete")
    for obj in ('":"', "numbers", 'the string "#"')
    for tails in (
        ("into lines",),
        ("at the start", "into lines"),
        ("at the start", "at position 5"),
        ("containing numbers", "into words"),
    )
]


def _result(engine, problem):
    try:
        out = engine.synthesize(problem)
    except SynthesisError as exc:
        return ("fail", str(exc))
    return (out.cgt.edges, out.cgt.bindings, out.size, out.codelet,
            asdict(out.stats))


class TestEngineMatchesReference:
    @pytest.mark.parametrize("config", _CONFIGS, ids=repr)
    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
    def test_synthetic_domains(self, shape, config):
        domain = make_synthetic_domain(*shape)
        problem = make_synthetic_problem(domain, *shape)
        folded = _result(DggtEngine(config), problem)
        assert folded[0] != "fail"
        assert folded == _result(ReferenceDggtEngine(config), problem)

    @pytest.mark.parametrize("config", _CONFIGS, ids=repr)
    def test_toy_domain(self, toy_domain, config):
        merged = 0
        for query in _TOY_QUERIES:
            problem = build_problem(toy_domain, query)
            folded = _result(DggtEngine(config), problem)
            assert folded == _result(ReferenceDggtEngine(config), problem)
            if folded[0] != "fail":
                merged += folded[4]["n_combinations"]
        assert merged  # the sample reaches Case II


class TestDeadlineInsideFold:
    def test_merge_stress_times_out_in_merge(self):
        shape = (3, 4, 5)
        domain = make_synthetic_domain(*shape)
        problem = make_synthetic_problem(domain, *shape)
        budget = 0.25
        started = time.monotonic()
        with pytest.raises(SynthesisTimeout) as err:
            DggtEngine().synthesize(problem, Deadline(budget))
        elapsed = time.monotonic() - started
        assert err.value.stage == "merge"
        assert elapsed < budget + 0.25
