"""String similarity primitives for the WordToAPI matcher (Step-3 fallback).

Exact lemma/synonym matching is the primary signal; edit-distance similarity
is the last-resort tie between a query word and an API name token (catching
spelling variants like "numeral"/"numerals" that survive lemmatization or
user typos like "charcter").
"""

from __future__ import annotations

from typing import Sequence


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance, iterative two-row DP."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[i] + 1,      # deletion
                    current[i - 1] + 1,   # insertion
                    previous[i - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def bounded_levenshtein(a: str, b: str, k: int) -> int:
    """``levenshtein(a, b)`` when it is at most ``k``; otherwise ``k + 1``.

    Strips the common prefix and suffix, then fills only the diagonal
    band ``|i - j| <= k`` of the DP with every cell capped at ``k + 1``:
    a cell outside the band is at least its offset from the diagonal, so
    capping it loses nothing, and the capped recurrence yields
    ``min(distance, k + 1)``.  Stops early once a whole band row exceeds
    ``k``.
    """
    if k < 0:
        return k + 1
    if a == b:
        return 0
    beyond = k + 1
    start = 0
    shortest = min(len(a), len(b))
    while start < shortest and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if len(a) > len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if m - n > k:
        return beyond
    if not n:
        return m
    previous = [j if j <= k else beyond for j in range(m + 1)]
    for i in range(1, n + 1):
        ca = a[i - 1]
        lo = max(1, i - k)
        hi = min(m, i + k)
        current = [beyond] * (m + 1)
        if i <= k:
            current[0] = i
        row_min = current[lo - 1]
        for j in range(lo, hi + 1):
            value = previous[j - 1] + (ca != b[j - 1])
            if previous[j] + 1 < value:
                value = previous[j] + 1
            if current[j - 1] + 1 < value:
                value = current[j - 1] + 1
            if value > beyond:
                value = beyond
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > k:
            return beyond
        previous = current
    return previous[m]


def edit_budget(longest: int, floor: float) -> int:
    """The largest edit distance ``k`` whose ratio ``1.0 - k / longest``
    still reaches ``floor`` (-1 when none does), evaluated with the very
    float expression :func:`similarity_ratio` uses."""
    if not longest:
        return 0 if floor <= 1.0 else -1
    k = longest
    while k >= 0 and 1.0 - k / longest < floor:
        k -= 1
    return k


def similarity_ratio(a: str, b: str) -> float:
    """Normalized similarity in [0, 1]: 1 - distance / max_len."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def prefix_similarity(a: str, b: str) -> float:
    """Common-prefix share — API name tokens are often truncations
    ("expr" vs "expression")."""
    if not a or not b:
        return 0.0
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n / max(len(a), len(b))


def token_similarity(a: str, b: str) -> float:
    """Similarity between two single tokens: the max of edit-ratio and
    prefix share, so both typos and truncations score high."""
    return max(similarity_ratio(a, b), prefix_similarity(a, b))


def dice_overlap(set_a: Sequence[str], set_b: Sequence[str]) -> float:
    """Dice coefficient over token multisets (order-insensitive)."""
    if not set_a or not set_b:
        return 0.0
    sa, sb = set(set_a), set(set_b)
    return 2.0 * len(sa & sb) / (len(sa) + len(sb))
