"""Regenerate ``word2api_golden.jsonl``, the pinned WordToAPI candidates.

    PYTHONPATH=src python tests/data/make_word2api_golden.py

The fixture was written by the per-API scan matcher that preceded the
indexed one; ``tests/test_word2api_golden.py`` asserts that the current
matcher reproduces every candidate list in it exactly (names, rounded
scores, sources and order).  Regenerating it with a changed matcher only
makes sense when a scoring change is intended.

Per domain it records, for the default :class:`MatchConfig` (the one
every domain's matcher uses):

* every phrase ``build_word_to_api_map`` looks up for the suite queries
  after parse and prune;
* every distinct API name token, raw and as the matcher normalizes it;
* seeded one-edit typos of those tokens, two-token combinations and a
  few random strings.

A smaller seeded sample is also recorded under three other configs
(``VARIANT_CONFIGS``) so the similarity floor and ``min_score`` paths are
pinned away from the defaults too.
"""

from __future__ import annotations

import json
import random
import string
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import _bundled_queries  # noqa: E402
from repro.domains import load_domain  # noqa: E402
from repro.nlp.lemmatizer import lemmatize  # noqa: E402
from repro.nlp.parser import parse_query  # noqa: E402
from repro.nlp.pruning import prune_query_graph  # noqa: E402
from repro.nlu.word2api import MatchConfig, WordToApiMatcher  # noqa: E402

OUT = Path(__file__).with_name("word2api_golden.jsonl")
DOMAINS = ("textediting", "astmatcher", "spreadsheet", "stringxform")
SEED = 20221
TYPOS_PER_TOKEN = 4
PAIRS_PER_DOMAIN = 600
RANDOM_STRINGS = 30
VARIANT_SAMPLE = 150
VARIANT_CONFIGS = {
    "floor0.5_min0.2": dict(similarity_floor=0.5, min_score=0.2, max_candidates=10),
    "floor0_min0": dict(similarity_floor=0.0, min_score=0.0, max_candidates=8),
    "floor1_min0.3": dict(similarity_floor=1.0, min_score=0.3, max_candidates=6),
}


def suite_phrases(dom) -> List[str]:
    """The lemmas Step-3 looks up for every suite query of ``dom``."""
    out: Dict[str, None] = {}
    for query in _bundled_queries(dom.name):
        pruned = prune_query_graph(parse_query(query), dom.prune_config)
        for node in pruned.nodes():
            if not node.is_literal:
                out[node.lemma] = None
    return list(out)


def name_tokens(dom) -> List[str]:
    syn = dom.synonyms
    out: Dict[str, None] = {}
    for entry in dom.document:
        for tok in entry.resolved_name_tokens():
            out[tok] = None
            out[syn.expand(lemmatize(syn.expand(tok)))] = None
    return sorted(t for t in out if t)


def typo(rng: random.Random, token: str) -> str:
    letters = string.ascii_lowercase
    i = rng.randrange(len(token) + 1)
    op = rng.choice(("delete", "insert", "substitute", "transpose"))
    if op == "insert" or len(token) < 2:
        return token[:i] + rng.choice(letters) + token[i:]
    i = min(i, len(token) - 1)
    if op == "delete":
        return token[:i] + token[i + 1:]
    if op == "substitute":
        return token[:i] + rng.choice(letters) + token[i + 1:]
    i = min(i, len(token) - 2)
    return token[:i] + token[i + 1] + token[i] + token[i + 2:]


def domain_phrases(dom, rng: random.Random) -> List[str]:
    lemmas = suite_phrases(dom)
    tokens = name_tokens(dom)
    out: Dict[str, None] = dict.fromkeys(lemmas)
    out.update(dict.fromkeys(tokens))
    for tok in tokens:
        for _ in range(TYPOS_PER_TOKEN):
            out[typo(rng, tok)] = None
    pool = sorted(set(tokens) | set(lemmas))
    for _ in range(PAIRS_PER_DOMAIN):
        out[f"{rng.choice(pool)} {rng.choice(pool)}"] = None
    for _ in range(RANDOM_STRINGS):
        n = rng.randint(1, 12)
        out["".join(rng.choice(string.ascii_lowercase) for _ in range(n))] = None
    out[""] = None
    return list(out)


def rows(label: str, domain: str, matcher: WordToApiMatcher,
         phrases: Sequence[str]) -> List[list]:
    return [
        [domain, label, p, [[c.name, c.score, c.source] for c in matcher.candidates(p)]]
        for p in phrases
    ]


def main() -> None:
    """Writes a header line naming each ``(domain, label)``'s config, then
    one ``[domain, label, phrase, candidates]`` line per phrase."""
    rng = random.Random(SEED)
    configs: Dict[str, dict] = {}
    lines: List[list] = []
    for name in DOMAINS:
        dom = load_domain(name)
        phrases = domain_phrases(dom, rng)
        runs = [("default", MatchConfig(), phrases)]
        sample = rng.sample(phrases, min(VARIANT_SAMPLE, len(phrases)))
        runs += [
            (label, MatchConfig(**overrides), sample)
            for label, overrides in VARIANT_CONFIGS.items()
        ]
        for label, config, run_phrases in runs:
            configs[f"{name}/{label}"] = asdict(config)
            matcher = WordToApiMatcher(dom.document, dom.synonyms, config)
            lines += rows(label, name, matcher, run_phrases)
        print(f"{name}: {len(phrases)} phrases", file=sys.stderr)
    with OUT.open("w") as fh:
        fh.write(json.dumps({"configs": configs}, sort_keys=True) + "\n")
        for line in lines:
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
