"""Domain-scoped cache layers: correctness, LRU behaviour, invalidation.

The load-bearing property is that caching is *invisible* except in speed:
a warm second pass over a whole query suite must produce byte-identical
codelets, sizes, and engine counters (everything except the cache counters
themselves) as the cold first pass.
"""

import time

import pytest

from repro import PathCache, Synthesizer, SynthesisTimeout, load_domain
from repro.domains.astmatcher import build_domain as build_astmatcher
from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES
from repro.domains.textediting import build_domain as build_textediting
from repro.domains.textediting.queries import TEXTEDITING_QUERIES
from repro.errors import ReproError
from repro.grammar.graph import api_id
from repro.grammar.path_cache import _MISSING, LruCache
from repro.grammar.paths import GrammarPath
from repro.synthesis.result import SynthesisStats


def fresh_textediting():
    """A private Domain instance (load_domain returns a process singleton)."""
    return build_textediting(fresh=True)


def _api_node_ids(domain):
    return [api_id(name) for name in domain.api_names]


def fresh_astmatcher():
    return build_astmatcher(fresh=True)


# ---------------------------------------------------------------------------
# LruCache unit behaviour
# ---------------------------------------------------------------------------


class TestLruCache:
    def test_miss_then_hit(self):
        c = LruCache(4)
        assert c.get("k") is _MISSING
        c.put("k", 42)
        assert c.get("k") == 42
        assert (c.hits, c.misses) == (1, 1)

    def test_falsy_values_are_cached(self):
        c = LruCache(4)
        c.put("empty", ())
        assert c.get("empty") == ()
        assert c.hits == 1

    def test_eviction_is_lru_ordered(self):
        c = LruCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh "a" -> "b" is now least recently used
        c.put("c", 3)
        assert "a" in c and "c" in c and "b" not in c
        assert c.evictions == 1
        assert len(c) == 2

    def test_get_or_compute_computes_once(self):
        c = LruCache(4)
        calls = []
        for _ in range(3):
            assert c.get_or_compute("k", lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 1

    def test_clear_keeps_counters(self):
        c = LruCache(4)
        c.put("k", 1)
        c.get("k")
        c.clear()
        assert len(c) == 0
        assert c.hits == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LruCache(0)


# ---------------------------------------------------------------------------
# PathCache layers
# ---------------------------------------------------------------------------


class TestPathCacheLayers:
    def test_find_paths_memoizes(self):
        domain = fresh_textediting()
        cache = domain.path_cache
        apis = _api_node_ids(domain)
        first = cache.find_paths(apis[0], apis[1], domain.path_limits)
        again = cache.find_paths(apis[0], apis[1], domain.path_limits)
        assert isinstance(first, tuple)
        assert again is first
        assert cache.paths.hits == 1 and cache.paths.misses == 1

    def test_find_paths_on_miss_hook(self):
        domain = fresh_textediting()
        cache = domain.path_cache
        apis = _api_node_ids(domain)
        calls = []
        cache.find_paths(apis[0], apis[1], on_miss=lambda: calls.append(1))
        cache.find_paths(apis[0], apis[1], on_miss=lambda: calls.append(1))
        assert calls == [1]  # hook fires on the miss only

    def test_path_layer_eviction(self):
        domain = fresh_textediting()
        cache = PathCache(domain.graph)
        cache.paths = LruCache(2)
        apis = _api_node_ids(domain)
        pairs = [(apis[0], apis[1]), (apis[1], apis[2]), (apis[2], apis[3])]
        results = [cache.find_paths(s, d) for s, d in pairs]
        assert len(cache.paths) == 2
        assert cache.paths.evictions == 1
        # The evicted entry recomputes to an equal value.
        assert cache.find_paths(*pairs[0]) == results[0]

    def test_path_size_matches_direct(self):
        domain = fresh_textediting()
        cache = domain.path_cache
        decode = cache.interner.decode_nodes
        apis = _api_node_ids(domain)
        for src in apis[:5]:
            for dst in apis[:5]:
                encs, sizes = cache.find_paths(src, dst)
                for enc, size in zip(encs, sizes):
                    path = GrammarPath("?", decode(enc))
                    assert size == path.size(domain.graph)
                    assert cache.size_of_enc(enc) == size

    def test_conflict_pairs_use_caller_ids(self):
        # The conflict cache keys on the set of encodings; callers list
        # the same paths in their own order per query, and must get
        # records aligned with *their* positions.
        domain = fresh_textediting()
        cache = domain.path_cache
        raw = []
        apis = _api_node_ids(domain)
        for src in apis:
            for dst in apis:
                raw, _sizes = cache.find_paths(src, dst)
                if len(raw) >= 2:
                    break
            if len(raw) >= 2:
                break
        assert len(raw) >= 2, "expected some multi-path API pair"
        encs = list(raw)
        records = cache.conflict_masks(encs)
        hits_before = cache.conflicts.hits
        reversed_records = cache.conflict_masks(encs[::-1])
        assert cache.conflicts.hits == hits_before + 1

        def pairs(encs, records):
            return {
                frozenset((encs[i], encs[j]))
                for i in range(len(encs))
                for j in range(len(encs))
                if records[j][1] & records[i][0]
            }

        assert pairs(encs[::-1], reversed_records) == pairs(encs, records)

    def test_snapshot_covers_stats_fields(self):
        cache = PathCache(fresh_textediting().graph)
        snap = cache.snapshot()
        for name in SynthesisStats.CACHE_FIELDS:
            assert name in snap


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_cache_is_per_graph_object(self):
        domain = fresh_textediting()
        cache = domain.path_cache
        assert domain.path_cache is cache  # stable while the graph is
        domain.graph = fresh_textediting().graph
        assert domain.path_cache is not cache
        assert domain.path_cache.graph is domain.graph

    def test_invalidate_caches_drops_entries(self):
        domain = fresh_textediting()
        synth = Synthesizer(domain)
        synth.synthesize("print every line")
        cache = domain.path_cache
        assert len(cache.paths) > 0 and len(cache.outcomes) > 0
        domain.invalidate_caches()
        assert len(cache.paths) == 0 and len(cache.outcomes) == 0
        assert cache.invalidations == 1
        assert domain.path_cache is cache  # same graph -> same cache object

    def test_mutated_grammar_recomputes_correctly(self):
        # After an in-place graph swap the new cache answers from the new
        # graph, not from stale entries.
        domain = fresh_textediting()
        synth = Synthesizer(domain)
        before = synth.synthesize("print every line").codelet
        domain.graph = fresh_textediting().graph
        after = synth.synthesize("print every line").codelet
        assert after == before


# ---------------------------------------------------------------------------
# End-to-end: caching must not change any result
# ---------------------------------------------------------------------------


def _suite_signature(items):
    """Everything observable about a suite run except the cache counters
    and timings."""
    out = []
    for item in items:
        if item.ok:
            stats = {
                k: v
                for k, v in item.outcome.stats.as_dict().items()
                if k not in SynthesisStats.CACHE_FIELDS
            }
            out.append(("ok", item.outcome.codelet, item.outcome.size, stats))
        else:
            out.append((item.status, type(item.error).__name__))
    return out


class TestColdWarmEquivalence:
    def test_textediting_suite_warm_identical(self):
        domain = fresh_textediting()
        synth = Synthesizer(domain, cache_outcomes=False)
        queries = [c.query for c in TEXTEDITING_QUERIES]
        cold = synth.synthesize_many(queries, timeout_seconds_each=20)
        warm = synth.synthesize_many(queries, timeout_seconds_each=20)
        assert _suite_signature(warm) == _suite_signature(cold)
        warm_hits = sum(i.outcome.stats.path_cache_hits for i in warm if i.ok)
        assert warm_hits > 0

    def test_astmatcher_slice_warm_identical(self):
        domain = fresh_astmatcher()
        synth = Synthesizer(domain, cache_outcomes=False)
        queries = [c.query for c in ASTMATCHER_QUERIES[:20]]
        cold = synth.synthesize_many(queries, timeout_seconds_each=20)
        warm = synth.synthesize_many(queries, timeout_seconds_each=20)
        assert _suite_signature(warm) == _suite_signature(cold)

    def test_outcome_cache_replays_identical(self):
        domain = fresh_textediting()
        synth = Synthesizer(domain)  # cache_outcomes=True
        query = "delete every word that contains numbers"
        first = synth.synthesize(query)
        second = synth.synthesize(query)
        assert second.stats.outcome_cache_hits == 1
        assert second is not first  # a fresh shell per call
        assert second.stats is not first.stats
        assert second.codelet == first.codelet
        assert second.size == first.size

    def test_outcome_cache_disabled(self):
        domain = fresh_textediting()
        synth = Synthesizer(domain, cache_outcomes=False)
        query = "print every line"
        synth.synthesize(query)
        second = synth.synthesize(query)
        assert second.stats.outcome_cache_hits == 0
        assert len(domain.path_cache.outcomes) == 0


# ---------------------------------------------------------------------------
# Timeout semantics (regression: 0 used to be treated as "unlimited")
# ---------------------------------------------------------------------------


class TestTimeoutZero:
    def test_timeout_zero_raises_immediately(self):
        synth = Synthesizer(load_domain("textediting"))
        started = time.monotonic()
        with pytest.raises(SynthesisTimeout):
            synth.synthesize("print every line", timeout_seconds=0)
        assert time.monotonic() - started < 0.5

    def test_timeout_zero_beats_warm_outcome_cache(self):
        # Even a cached query must honour a zero budget: the deadline is
        # checked before the outcome-cache lookup.
        domain = fresh_textediting()
        synth = Synthesizer(domain)
        synth.synthesize("print every line")
        with pytest.raises(SynthesisTimeout):
            synth.synthesize("print every line", timeout_seconds=0)

    def test_negative_timeout_rejected(self):
        synth = Synthesizer(load_domain("textediting"))
        with pytest.raises(ValueError):
            synth.synthesize("print every line", timeout_seconds=-1)


# ---------------------------------------------------------------------------
# Batch API
# ---------------------------------------------------------------------------


class TestSynthesizeMany:
    QUERIES = [
        "print every line",
        "zzz qqq xxx",  # unmatchable -> per-query error, not a batch abort
        "delete every word that contains numbers",
    ]

    def _check_items(self, items):
        assert [i.index for i in items] == [0, 1, 2]
        assert [i.query for i in items] == self.QUERIES
        assert items[0].ok and items[2].ok
        assert not items[1].ok
        assert items[1].status == "error"
        assert isinstance(items[1].error, ReproError)

    def test_order_and_per_query_errors(self):
        synth = Synthesizer(fresh_textediting())
        self._check_items(synth.synthesize_many(self.QUERIES))

    def test_process_order_preserved(self):
        synth = Synthesizer(fresh_textediting())
        self._check_items(
            synth.synthesize_many(self.QUERIES, max_workers=2)
        )

    def test_per_query_timeout(self):
        synth = Synthesizer(fresh_textediting())
        items = synth.synthesize_many(self.QUERIES, timeout_seconds_each=0)
        assert [i.status for i in items] == ["timeout"] * 3
        assert all(isinstance(i.error, SynthesisTimeout) for i in items)
        assert all(i.elapsed_seconds == 0 for i in items)  # clamped

    def test_on_result_callback(self):
        synth = Synthesizer(fresh_textediting())
        seen = []
        items = synth.synthesize_many(
            self.QUERIES, on_result=lambda item: seen.append(item)
        )
        assert seen == items  # single worker: input order, same objects

    def test_run_dataset_process_matches_sequential(self):
        from repro.eval.harness import run_dataset

        domain = fresh_textediting()
        cases = TEXTEDITING_QUERIES[:10]
        seen = []
        seq = run_dataset(domain, cases, timeout_seconds=20)
        par = run_dataset(
            domain,
            cases,
            timeout_seconds=20,
            max_workers=2,
            progress=seen.append,
        )
        assert [r.case.case_id for r in par] == [c.case_id for c in cases]
        assert [(r.status, r.codelet, r.correct) for r in par] == [
            (r.status, r.codelet, r.correct) for r in seq
        ]
        # progress fires once per case (completion order may differ)
        assert sorted(r.case.case_id for r in seen) == sorted(
            c.case_id for c in cases
        )

    def test_matches_single_query_results(self):
        domain = fresh_textediting()
        solo = Synthesizer(domain, cache_outcomes=False)
        expected = [
            solo.synthesize(q).codelet
            for q in self.QUERIES
            if q != "zzz qqq xxx"
        ]
        items = Synthesizer(domain).synthesize_many(self.QUERIES)
        got = [i.outcome.codelet for i in items if i.ok]
        assert got == expected
