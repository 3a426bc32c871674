"""NLU layer: API documents, lexical knowledge, WordToAPI matching (Step-3).

In the staged pipeline (:mod:`repro.synthesis.stages`), the matcher here
backs the ``word_to_api`` stage: :func:`build_word_to_api_map` is what
:func:`repro.synthesis.stages.word_to_api` runs (through
``build_candidates``) to turn pruned query words into ranked API
candidates.
"""

from repro.nlu.docs import ApiDoc, ApiDocument, split_name
from repro.nlu.similarity import (
    dice_overlap,
    levenshtein,
    prefix_similarity,
    similarity_ratio,
    token_similarity,
)
from repro.nlu.synonyms import SynonymTable, default_synonyms
from repro.nlu.word2api import (
    ApiCandidate,
    MatchConfig,
    WordToApiMap,
    WordToApiMatcher,
    build_word_to_api_map,
)

__all__ = [
    "ApiDoc",
    "ApiDocument",
    "split_name",
    "SynonymTable",
    "default_synonyms",
    "levenshtein",
    "similarity_ratio",
    "prefix_similarity",
    "token_similarity",
    "dice_overlap",
    "ApiCandidate",
    "MatchConfig",
    "WordToApiMatcher",
    "WordToApiMap",
    "build_word_to_api_map",
]
