"""Unit tests for string-similarity primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlu.similarity import (
    bounded_levenshtein,
    dice_overlap,
    edit_budget,
    levenshtein,
    prefix_similarity,
    similarity_ratio,
    token_similarity,
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("insert", "insert", 0),
            ("cat", "cut", 1),
            ("abc", "cba", 2),
        ],
    )
    def test_known_distances(self, a, b, d):
        assert levenshtein(a, b) == d

    def test_symmetry(self):
        assert levenshtein("expression", "expr") == levenshtein("expr", "expression")


#: Short words over a small alphabet, so distances span the whole range.
_words = st.text(alphabet="abcde", max_size=12)


class TestBoundedLevenshtein:
    @settings(max_examples=500, deadline=None)
    @given(a=_words, b=_words, k=st.integers(-1, 14))
    def test_exact_up_to_k_and_beyond_k_past_it(self, a, b, k):
        distance = levenshtein(a, b)
        bounded = bounded_levenshtein(a, b, k)
        if distance <= k:
            assert bounded == distance
        else:
            assert bounded > k

    @settings(max_examples=300, deadline=None)
    @given(
        longest=st.integers(0, 40),
        floor=st.one_of(
            st.floats(-0.5, 1.5, allow_nan=False),
            st.sampled_from([0.0, 0.5, 0.85, 0.9, 1.0]),
        ),
    )
    def test_edit_budget_is_the_largest_passing_distance(self, longest, floor):
        # The same float expression similarity_ratio evaluates.
        def ratio(k):
            return 1.0 - k / longest if longest else 1.0

        passing = [k for k in range(longest + 1) if ratio(k) >= floor]
        assert edit_budget(longest, floor) == max(passing, default=-1)


class TestRatios:
    def test_identical(self):
        assert similarity_ratio("foo", "foo") == 1.0
        assert similarity_ratio("", "") == 1.0

    def test_disjoint(self):
        assert similarity_ratio("abc", "xyz") == 0.0

    def test_prefix_similarity(self):
        assert prefix_similarity("expression", "expr") == pytest.approx(0.4)
        assert prefix_similarity("abc", "xbc") == 0.0
        assert prefix_similarity("", "abc") == 0.0

    def test_token_similarity_prefers_best_view(self):
        # "charcter" typo: edit similarity dominates
        assert token_similarity("charcter", "character") > 0.85
        # truncation: prefix share dominates
        assert token_similarity("expr", "expression") >= 0.4

    def test_dice_overlap(self):
        assert dice_overlap(["a", "b"], ["b", "c"]) == pytest.approx(0.5)
        assert dice_overlap([], ["a"]) == 0.0
        assert dice_overlap(["a"], ["a"]) == 1.0
