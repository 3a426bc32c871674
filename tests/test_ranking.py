"""Unit tests for ranked candidate expressions (IDE suggestion lists).

Every ranked list comes from one generator, reached through
``Synthesizer.synthesize(candidates=k)``."""

import pytest

from repro.errors import SynthesisError
from repro.synthesis.pipeline import Synthesizer
from repro.synthesis.ranking import RankedCandidate


def _ranked(domain, query, k=3, timeout_seconds=20.0):
    outcome = Synthesizer(domain).synthesize(
        query, timeout_seconds, candidates=k
    )
    return outcome.candidates


class TestRankedCandidates:
    def test_top1_matches_synthesizer(self, toy_domain):
        query = 'insert ":" into lines'
        ranked = _ranked(toy_domain, query, k=1)
        direct = Synthesizer(toy_domain).synthesize(query)
        assert ranked[0].codelet == direct.codelet
        assert ranked[0].rank == 1

    def test_alternatives_vary_root_interpretation(self, textediting):
        # Alternatives reinterpret one dependency node at a time.
        ranked = _ranked(
            textediting, "select the first word in every sentence", k=3
        )
        assert 1 <= len(ranked) <= 3
        codelets = [r.codelet for r in ranked]
        assert len(set(codelets)) == len(codelets)  # deduplicated
        assert [r.rank for r in ranked] == list(range(1, len(ranked) + 1))

    def test_k_validation(self, toy_domain):
        synth = Synthesizer(toy_domain)
        with pytest.raises(ValueError):
            synth.synthesize("insert", candidates=0)
        with pytest.raises(ValueError):
            synth.synthesize_many(["insert"], candidates=0)

    def test_unsynthesizable_raises(self, toy_domain):
        with pytest.raises(SynthesisError):
            _ranked(toy_domain, "zebra")

    def test_partial_list_when_alternatives_dry_up(self, toy_domain):
        # "insert" has a single candidate API: exactly one suggestion.
        ranked = _ranked(toy_domain, "insert", k=5)
        assert len(ranked) == 1

    def test_astmatcher_suggestions(self, astmatcher):
        ranked = _ranked(
            astmatcher, "find virtual methods", k=2, timeout_seconds=30
        )
        assert ranked[0].codelet == "cxxMethodDecl(isVirtual())"
        for r in ranked:
            assert isinstance(r, RankedCandidate)
            assert r.size >= 1

    def test_rank1_is_the_plain_synthesis_on_the_suite_head(self, textediting):
        from repro.domains.textediting.queries import TEXTEDITING_QUERIES

        synth = Synthesizer(textediting, cache_outcomes=False)
        for case in TEXTEDITING_QUERIES[:20]:
            plain = synth.synthesize(case.query, 20.0)
            ranked = synth.synthesize(case.query, 20.0, candidates=3)
            assert ranked.codelet == plain.codelet
            assert ranked.candidates[0].codelet == plain.codelet
