"""WordToAPI matching (paper Step-3).

For every content node of the pruned dependency graph, find the domain APIs
that may semantically match it "by matching the query words with the
descriptions of each API via NLU techniques".  The produced *WordToAPI map*
feeds EdgeToPath (Step-4): each candidate API becomes a path-search endpoint,
so the candidate count per word is exactly the paper's ``p_l`` factor in both
engines' complexity.

Scoring (deterministic, strongest first):

1. **name match** — Dice overlap between the word/phrase's canonical tokens
   and the API's canonical name tokens (synonym + abbreviation aware);
2. **description match** — half-weight Dice overlap against the description
   keyword set;
3. **similarity fallback** — edit/prefix similarity against name tokens,
   0.55-weight, for near-miss spellings at or above ``similarity_floor``.

Candidates below ``min_score`` are dropped, the rest ranked by (score desc,
name asc) and capped at ``max_candidates``.

A phrase is scored only against the APIs that can score above zero.  An
inverted index from canonical synonym ids to the APIs whose name or
description-keyword sets hold them yields every API with a non-zero Dice
score.  The similarity fallback builds one table per phrase over the
distinct name tokens and skips every pair whose length difference alone
(:func:`length_similarity_bound`) keeps it below ``similarity_floor``;
such a pair cannot change whether an API reaches the floor, nor the best
pair of one that does.  Every other API scores exactly three zeros, so the
candidates equal those of a scan over every API and every token pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.grammar.path_cache import LruCache
from repro.nlp.lemmatizer import lemmatize
from repro.nlu.docs import ApiDocument
from repro.nlu.similarity import (
    bounded_levenshtein,
    edit_budget,
    prefix_similarity,
)
from repro.nlu.synonyms import SynonymTable


#: Auxiliary name tokens stripped from multi-token API names before
#: comparison (they appear in nearly every predicate name).
_GENERIC_TOKENS = frozenset({"has", "have", "is", "be"})

#: Phrases memoized per matcher.  Far above the distinct lemmas of a cold
#: pass over every suite query (226 on ASTMatcher), while bounding what a
#: long-running server fed novel vocabulary keeps.
PHRASE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ApiCandidate:
    """One candidate API for a query word, with its evidence."""

    name: str
    score: float
    source: str  # "name" | "description" | "similarity"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ApiCandidate({self.name}, {self.score:.2f}, {self.source})"


@dataclass(frozen=True)
class MatchConfig:
    """Tunables of the matcher; defaults mirror a ``p_l`` of a few
    candidates per word, as in the paper's complexity discussion."""

    max_candidates: int = 6
    min_score: float = 0.45
    description_weight: float = 0.5
    # 0.55 so a near-perfect fallback (>= similarity_floor) clears
    # min_score but still ranks below any real name/synonym match.
    similarity_weight: float = 0.55
    similarity_floor: float = 0.85  # token similarity needed for fallback


def length_similarity_bound(len_a: int, len_b: int) -> float:
    """An upper bound on :func:`~repro.nlu.similarity.token_similarity`
    of any two tokens with these lengths, never below the float it returns.

    Both of its terms are at most ``1 - gap / longest`` (``gap`` = the
    length difference): the edit distance is at least ``gap`` and a
    common prefix at most ``longest - gap`` long.  Each term is bounded
    by evaluating its own formula at that extreme, because float division
    and subtraction round monotonically; the two evaluations may differ
    by an ulp, so the bound takes their max.
    """
    longest = max(len_a, len_b)
    if longest == 0:
        return 1.0
    gap = abs(len_a - len_b)
    return max(1.0 - gap / longest, (longest - gap) / longest)


class WordToApiMatcher:
    """Matches pruned-dependency-graph words against a domain's APIs."""

    def __init__(
        self,
        document: ApiDocument,
        synonyms: SynonymTable,
        config: Optional[MatchConfig] = None,
    ):
        self.document = document
        self.synonyms = synonyms
        self.config = config or MatchConfig()
        # Precompute canonical-set token views of every API once per domain.
        # Canonicalization is set-valued (a word may sit in several synonym
        # groups); two tokens match when their sets intersect.
        self._name_sets: Dict[str, Tuple[frozenset, ...]] = {}
        self._name_raw: Dict[str, Tuple[str, ...]] = {}
        self._keyword_sets: Dict[str, Tuple[frozenset, ...]] = {}
        for entry in document:
            # Name tokens are lemmatized and abbreviation-expanded so they
            # compare symmetrically with query lemmas ("contains"/"contain",
            # "exprs"/"expression").  Generic auxiliary tokens ("has", "is")
            # carry no lexical information — ``hasType`` means *type* — so
            # they are stripped from multi-token names before comparison.
            raw = tuple(
                dict.fromkeys(
                    synonyms.expand(lemmatize(synonyms.expand(t)))
                    for t in entry.resolved_name_tokens()
                )
            )
            if len(raw) > 1:
                stripped = tuple(t for t in raw if t not in _GENERIC_TOKENS)
                raw = stripped or raw
            self._name_raw[entry.name] = raw
            self._name_sets[entry.name] = tuple(
                synonyms.canonical_set(t) for t in raw
            )
            self._keyword_sets[entry.name] = tuple(
                synonyms.canonical_set(k)
                for k in dict.fromkeys(entry.keywords())
            )
        # Inverted indexes: canonical id -> APIs whose name (keyword) sets
        # hold it, raw name token -> APIs carrying it, and the distinct
        # name tokens bucketed by length.
        self._name_index = _invert(
            (name, frozenset().union(*sets))
            for name, sets in self._name_sets.items()
        )
        self._keyword_index = _invert(
            (name, frozenset().union(*sets))
            for name, sets in self._keyword_sets.items()
        )
        self._token_apis = _invert(self._name_raw.items())
        by_length: Dict[int, List[str]] = {}
        for token in self._token_apis:
            by_length.setdefault(len(token), []).append(token)
        self._tokens_by_length = sorted(by_length.items())
        self._cache = LruCache(PHRASE_CACHE_SIZE)

    # ------------------------------------------------------------------

    def _phrase_views(
        self, phrase: str
    ) -> Tuple[Tuple[str, ...], Tuple[frozenset, ...]]:
        raw = tuple(
            dict.fromkeys(
                self.synonyms.expand(tok) for tok in phrase.lower().split()
            )
        )
        return raw, tuple(self.synonyms.canonical_set(t) for t in raw)

    @staticmethod
    def _overlap_dice(
        a_sets: Sequence[frozenset], b_sets: Sequence[frozenset]
    ) -> float:
        """Dice coefficient generalized to set-valued tokens: a token on one
        side counts as matched when it intersects any token of the other."""
        if not a_sets or not b_sets:
            return 0.0
        matched_a = sum(1 for s in a_sets if any(s & t for t in b_sets))
        matched_b = sum(1 for t in b_sets if any(s & t for s in a_sets))
        return (matched_a + matched_b) / (len(a_sets) + len(b_sets))

    def _similarity_table(self, phrase_tokens: Sequence[str]) -> Dict[str, float]:
        """Best token similarity per distinct name token over the phrase
        tokens, exact wherever it reaches the floor.

        Lengths whose bound is below the floor are skipped, and the edit
        distance is computed only up to the largest one whose ratio still
        reaches the floor (:func:`~repro.nlu.similarity.edit_budget`).
        Past it the ratio is below the floor, so the pair's value is its
        prefix share, exact if that reaches the floor and below it
        otherwise; every value below the floor gates to 0 alike."""
        floor = self.config.similarity_floor
        table: Dict[str, float] = {}
        for p in phrase_tokens:
            for length, tokens in self._tokens_by_length:
                if length_similarity_bound(len(p), length) < floor:
                    continue
                longest = max(len(p), length)
                budget = edit_budget(longest, floor)
                for n in tokens:
                    sim = prefix_similarity(p, n)
                    distance = bounded_levenshtein(p, n, budget)
                    if distance <= budget:
                        ratio = 1.0 - distance / longest if longest else 1.0
                        if ratio > sim:
                            sim = ratio
                    table[n] = max(table.get(n, 0.0), sim)
        return table

    def _rank(self, phrase: str) -> List[ApiCandidate]:
        cfg = self.config
        phrase_raw, phrase_sets = self._phrase_views(phrase)
        ids = frozenset().union(*phrase_sets)
        touched = set()
        for index in (self._name_index, self._keyword_index):
            for c in ids:
                touched.update(index.get(c, ()))
        similarity = self._similarity_table(phrase_raw)
        for token, best in similarity.items():
            if best >= cfg.similarity_floor:
                touched.update(self._token_apis[token])

        def scored(name_score: float, desc_score: float, sim: float):
            return max(
                (name_score, "name"),
                (desc_score * cfg.description_weight, "description"),
                (sim * cfg.similarity_weight, "similarity"),
            )

        results: List[ApiCandidate] = []
        for name in touched:
            # The best pair of this API was not skipped if it reaches the
            # floor, so the gate below matches a scan over every pair.
            best = max(
                (similarity.get(t, 0.0) for t in self._name_raw[name]),
                default=0.0,
            )
            score, source = scored(
                self._overlap_dice(phrase_sets, self._name_sets[name]),
                self._overlap_dice(phrase_sets, self._keyword_sets[name]),
                best if best >= cfg.similarity_floor else 0.0,
            )
            if score >= cfg.min_score:
                results.append(ApiCandidate(name, round(score, 4), source))
        # Every API outside ``touched`` scores exactly three zeros.
        score, source = scored(0.0, 0.0, 0.0)
        if score >= cfg.min_score:
            results.extend(
                ApiCandidate(name, round(score, 4), source)
                for name in self.document.names()
                if name not in touched
            )
        results.sort(key=lambda c: (-c.score, c.name))
        return results[: cfg.max_candidates]

    def candidates(self, phrase: str) -> List[ApiCandidate]:
        """Ranked candidate APIs for a word or merged phrase (lemmas,
        space-separated)."""
        return list(self._cache.get_or_compute(phrase, lambda: self._rank(phrase)))

    def candidate_names(self, phrase: str) -> List[str]:
        return [c.name for c in self.candidates(phrase)]


def _invert(
    keys_by_api: Iterable[Tuple[str, Iterable[str]]]
) -> Dict[str, Tuple[str, ...]]:
    """Key -> the APIs whose keys include it."""
    index: Dict[str, List[str]] = {}
    for name, keys in keys_by_api:
        for key in keys:
            index.setdefault(key, []).append(name)
    return {key: tuple(names) for key, names in index.items()}


WordToApiMap = Dict[int, List[ApiCandidate]]


def build_word_to_api_map(graph, matcher: WordToApiMatcher) -> WordToApiMap:
    """The paper's *WordToAPI map*: pruned-graph node id -> candidates.

    Literal nodes (quoted strings, numerals) are left out — the domain binds
    them to literal-slot APIs separately (see ``Domain.literal_apis``).
    """
    mapping: WordToApiMap = {}
    for node in graph.nodes():
        if node.is_literal:
            continue
        mapping[node.node_id] = matcher.candidates(node.lemma)
    return mapping
