"""The WordToAPI matcher reproduces its pinned candidates exactly.

``data/word2api_golden.jsonl`` holds candidate lists written by the
per-API scan matcher (see ``data/make_word2api_golden.py``): every suite
lemma, API name token, seeded typo, token pair and random string of the
four domains, under each domain's own config and three variants.  Names,
rounded scores, sources and order must all match.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.domains import load_domain
from repro.nlu.word2api import MatchConfig, WordToApiMatcher

GOLDEN = Path(__file__).parent / "data" / "word2api_golden.jsonl"


def _load():
    with GOLDEN.open() as fh:
        configs = json.loads(fh.readline())["configs"]
        groups = {}
        for line in fh:
            domain, label, phrase, candidates = json.loads(line)
            groups.setdefault((domain, label), []).append((phrase, candidates))
    return configs, groups


CONFIGS, GROUPS = _load()


def test_fixture_covers_every_domain_and_phrase_mix():
    assert {d for d, _ in GROUPS} == {
        "textediting", "astmatcher", "spreadsheet", "stringxform",
    }
    assert sum(len(v) for (_, label), v in GROUPS.items() if label == "default") > 4500


@pytest.mark.parametrize("domain,label", sorted(GROUPS))
def test_matcher_reproduces_golden_candidates(domain, label):
    dom = load_domain(domain)
    config = MatchConfig(**CONFIGS[f"{domain}/{label}"])
    if label == "default":
        assert config == dom.match_config
    matcher = WordToApiMatcher(dom.document, dom.synonyms, config)
    mismatches = []
    for phrase, expected in GROUPS[(domain, label)]:
        got = [[c.name, c.score, c.source] for c in matcher.candidates(phrase)]
        if got != expected:
            mismatches.append((phrase, expected, got))
    assert not mismatches, mismatches[:3]
