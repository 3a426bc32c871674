"""Unit tests for WordToAPI matching (Step-3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlu.docs import ApiDoc, ApiDocument
from repro.nlu.similarity import token_similarity
from repro.nlu.synonyms import default_synonyms
from repro.nlu.word2api import (
    PHRASE_CACHE_SIZE,
    MatchConfig,
    WordToApiMatcher,
    length_similarity_bound,
)


def _docs():
    return ApiDocument(
        [
            ApiDoc("INSERT", "Insert a string at a position.", ("insert",)),
            ApiDoc("STRING", "A literal string value.", ("string",)),
            ApiDoc("SRCSTRING", "The source string of a replace.", ("src", "string")),
            ApiDoc("LINESCOPE", "Iterate over lines.", ("line", "scope")),
            ApiDoc("LINETOKEN", "A line token.", ("line", "token")),
            ApiDoc("CONTAINS", "Unit contains the given token.", ("contains",)),
            ApiDoc("hasName", "Matches declarations by name."),
            ApiDoc("hasType", "Matches nodes whose type matches."),
            ApiDoc("cxxMethodDecl", "Matches cxx method declarations."),
        ]
    )


@pytest.fixture(scope="module")
def matcher():
    return WordToApiMatcher(_docs(), default_synonyms())


class TestScoring:
    def test_exact_name_match_is_top(self, matcher):
        names = matcher.candidate_names("insert")
        assert names[0] == "INSERT"

    def test_synonym_match(self, matcher):
        assert matcher.candidate_names("append")[0] == "INSERT"
        assert matcher.candidate_names("add")[0] == "INSERT"

    def test_partial_name_match_ranked_lower(self, matcher):
        names = matcher.candidate_names("string")
        assert names[0] == "STRING"
        assert "SRCSTRING" in names

    def test_ambiguous_word_multiple_candidates(self, matcher):
        names = matcher.candidate_names("line")
        assert {"LINESCOPE", "LINETOKEN"} <= set(names)

    def test_inflected_form_matches(self, matcher):
        # name tokens are lemmatized symmetrically: "contains"/"contain"
        assert matcher.candidate_names("contain")[0] == "CONTAINS"

    def test_generic_token_stripped(self, matcher):
        # "hasType" means *type*: bare "type" must hit it at full score.
        names = matcher.candidate_names("type")
        assert names[0] == "hasType"

    def test_named_matches_has_name(self, matcher):
        assert matcher.candidate_names("name")[0] == "hasName"

    def test_multiword_phrase(self, matcher):
        names = matcher.candidate_names("cxx method declaration")
        assert names[0] == "cxxMethodDecl"

    def test_no_match_empty(self, matcher):
        assert matcher.candidate_names("zebra") == []

    def test_deterministic_and_cached(self, matcher):
        a = matcher.candidates("line")
        b = matcher.candidates("line")
        assert a == b
        assert a is not b  # cache returns copies


class TestConfig:
    def test_max_candidates_cap(self):
        docs = ApiDocument(
            [ApiDoc(f"API{i}", "x", ("same", f"tok{i}")) for i in range(10)]
        )
        m = WordToApiMatcher(docs, default_synonyms(), MatchConfig(max_candidates=3))
        assert len(m.candidates("same")) == 3

    def test_min_score_filters(self):
        docs = ApiDocument([ApiDoc("ABC", "x", ("alpha", "beta", "gamma", "delta"))])
        m = WordToApiMatcher(docs, default_synonyms(), MatchConfig(min_score=0.9))
        assert m.candidates("alpha") == []

    def test_similarity_fallback(self):
        docs = ApiDocument([ApiDoc("CHARACTER", "x", ("character",))])
        m = WordToApiMatcher(docs, default_synonyms())
        cands = m.candidates("charcter")  # typo
        assert cands and cands[0].name == "CHARACTER"
        assert cands[0].source == "similarity"

    def test_description_fallback(self):
        docs = ApiDocument(
            [ApiDoc("XYZ", "Iterate over paragraphs and passages.", ("xyz",))]
        )
        m = WordToApiMatcher(
            docs, default_synonyms(), MatchConfig(min_score=0.3)
        )
        cands = m.candidates("paragraph")
        assert cands and cands[0].source == "description"


class TestEdgeCases:
    def test_min_score_zero_returns_every_api(self):
        for min_score in (0.0, -1.0):
            m = WordToApiMatcher(
                _docs(), default_synonyms(),
                MatchConfig(min_score=min_score, max_candidates=100),
            )
            cands = m.candidates("insert")
            assert sorted(c.name for c in cands) == sorted(_docs().names())
            assert cands[0].name == "INSERT"
            zeros = [c for c in cands if c.score == 0.0]
            assert zeros, cands
            # An API that scores nothing gets the max of three zero
            # (score, source) pairs.
            assert {c.source for c in zeros} == {"similarity"}
            assert [c.name for c in zeros] == sorted(c.name for c in zeros)

    def test_empty_phrase(self):
        assert WordToApiMatcher(_docs(), default_synonyms()).candidates("") == []
        m = WordToApiMatcher(
            _docs(), default_synonyms(), MatchConfig(min_score=0.0, max_candidates=100)
        )
        cands = m.candidates("")
        assert len(cands) == len(_docs())
        assert {(c.score, c.source) for c in cands} == {(0.0, "similarity")}

    def test_similarity_floor_zero_scores_every_pair(self):
        docs = ApiDocument([ApiDoc("CHARACTER", "x", ("character",))])
        m = WordToApiMatcher(
            docs, default_synonyms(),
            MatchConfig(similarity_floor=0.0, min_score=0.3),
        )
        # edit distance 4 over 9 characters; the prefix share is the same.
        expected = round((1.0 - 4 / 9) * 0.55, 4)
        assert m.candidates("chara")[0].score == expected
        assert m.candidates("chara")[0].source == "similarity"
        assert WordToApiMatcher(docs, default_synonyms(), MatchConfig(
            min_score=0.3)).candidates("chara") == []

    def test_similarity_floor_one_needs_identical_tokens(self):
        docs = ApiDocument([ApiDoc("CHARACTER", "x", ("character",))])
        m = WordToApiMatcher(
            docs, default_synonyms(), MatchConfig(similarity_floor=1.0)
        )
        assert m.candidates("charcter") == []
        assert m.candidate_names("character") == ["CHARACTER"]

    def test_score_tie_prefers_similarity_then_name(self):
        docs = ApiDocument([ApiDoc("CHARACTER", "A character.", ("character",))])
        # name, description and similarity all score 1.0: "similarity"
        # wins the (score, source) max, then "name" over "description".
        tied = MatchConfig(description_weight=1.0, similarity_weight=1.0)
        m = WordToApiMatcher(docs, default_synonyms(), tied)
        assert m.candidates("character")[0].source == "similarity"
        no_sim = MatchConfig(description_weight=1.0, similarity_weight=0.5)
        m = WordToApiMatcher(docs, default_synonyms(), no_sim)
        assert m.candidates("character")[0].source == "name"

    def test_max_candidates_cap_breaks_ties_by_name(self):
        docs = ApiDocument(
            [ApiDoc(f"API{i}", "x", ("same", f"tok{i}")) for i in range(9, -1, -1)]
        )
        m = WordToApiMatcher(docs, default_synonyms(), MatchConfig(max_candidates=3))
        assert m.candidate_names("same") == ["API0", "API1", "API2"]
        m = WordToApiMatcher(docs, default_synonyms(), MatchConfig(max_candidates=0))
        assert m.candidates("same") == []


class TestLengthGate:
    @settings(max_examples=400, deadline=None)
    @given(
        a=st.text(alphabet="abcde", max_size=16),
        b=st.text(alphabet="abcde", max_size=16),
        floor=st.sampled_from([0.0, 0.5, 0.85, 1.0]),
    )
    def test_skipped_pairs_cannot_reach_the_floor(self, a, b, floor):
        bound = length_similarity_bound(len(a), len(b))
        assert token_similarity(a, b) <= bound
        if bound < floor:
            assert token_similarity(a, b) < floor

    def test_bound_is_reached_at_every_length_pair(self):
        # A token that extends another reaches both terms of the bound,
        # the float boundary case.
        for la in range(41):
            for lb in range(41):
                assert token_similarity("x" * la, "x" * lb) <= (
                    length_similarity_bound(la, lb)
                )


class TestPhraseMemo:
    def test_memo_is_bounded_and_refills_identically(self):
        m = WordToApiMatcher(_docs(), default_synonyms())
        first = m.candidates("line")
        for i in range(PHRASE_CACHE_SIZE + 10):
            m.candidates(f"word{i}")
        assert len(m._cache) <= PHRASE_CACHE_SIZE
        assert "line" not in m._cache
        assert m.candidates("line") == first
