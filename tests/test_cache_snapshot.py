"""Persistent PathCache snapshots and the fixed layer capacities.

Snapshots must be an invisible optimization: loading one changes only the
clock (and the hit counters), never a codelet.  Staleness is the other
load-bearing property — a snapshot from a different grammar must be
rejected, because seeding the cache with another grammar's paths would
silently corrupt results.
"""

import pickle

import pytest

from repro import CacheSnapshotError, Synthesizer
from repro.domains import (
    available_domains,
    clear_cached_domains,
    get,
    is_registered,
    load_domain,
    register,
    unregister,
)
from repro.domains.textediting import build_domain as build_textediting
from repro.domains.textediting.queries import TEXTEDITING_QUERIES
from repro.errors import DomainError
from repro.grammar.path_cache import (
    CAPACITIES,
    SNAPSHOT_FORMAT_VERSION,
    LruCache,
    load_snapshot,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.grammar.paths import PathSearchLimits
from repro.nlu.docs import ApiDoc
from repro.synthesis.domain import Domain

BNF = """
start ::= action
action ::= DO | THING
"""

BNF_OTHER = """
start ::= action
action ::= DO | THING | OTHER
"""


def _mini_domain(bnf=BNF, name="mini", **kwargs):
    docs = [ApiDoc("DO", "do something"), ApiDoc("THING", "a thing")]
    if "OTHER" in bnf:
        docs.append(ApiDoc("OTHER", "another"))
    return Domain.create(name, bnf, docs, **kwargs)


def _warm(domain, n=12):
    synth = Synthesizer(domain)
    queries = [c.query for c in TEXTEDITING_QUERIES[:n]]
    return synth.synthesize_many(queries, timeout_seconds_each=20)


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------


class TestGrammarFingerprint:
    def test_stable_across_builds(self):
        a = build_textediting(fresh=True)
        b = build_textediting(fresh=True)
        assert a.grammar_hash() == b.grammar_hash()

    def test_differs_for_different_grammars(self):
        assert (
            _mini_domain(BNF).grammar_hash()
            != _mini_domain(BNF_OTHER).grammar_hash()
        )

    def test_sensitive_to_generic_apis(self):
        plain = _mini_domain(BNF)
        generic = _mini_domain(BNF, generic_apis=("THING",))
        assert plain.grammar_hash() != generic.grammar_hash()


# ---------------------------------------------------------------------------
# Save -> load -> equivalence
# ---------------------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_save_load_preserves_entries(self, tmp_path):
        domain = build_textediting(fresh=True)
        _warm(domain)
        path = domain.save_cache(tmp_path)
        assert path.exists()

        fresh = build_textediting(fresh=True)
        assert fresh.load_cache(tmp_path) is True
        assert (
            fresh.path_cache.export_entries()
            == domain.path_cache.export_entries()
        )

    def test_preloaded_first_query_hits(self, tmp_path):
        domain = build_textediting(fresh=True)
        _warm(domain)
        domain.save_cache(tmp_path)

        fresh = build_textediting(fresh=True)
        fresh.load_cache(tmp_path)
        out = Synthesizer(fresh).synthesize(TEXTEDITING_QUERIES[0].query)
        assert out.stats.path_cache_hits > 0
        assert out.stats.path_cache_misses == 0
        assert out.stats.size_cache_misses == 0

    def test_results_identical_cold_vs_preloaded(self, tmp_path):
        queries = [c.query for c in TEXTEDITING_QUERIES[:25]]
        cold_domain = build_textediting(fresh=True)
        cold = Synthesizer(cold_domain).synthesize_many(
            queries, timeout_seconds_each=20
        )
        cold_domain.save_cache(tmp_path)

        warm_domain = build_textediting(fresh=True)
        warm_domain.load_cache(tmp_path)
        warm = Synthesizer(warm_domain).synthesize_many(
            queries, timeout_seconds_each=20
        )
        assert [
            i.outcome.codelet if i.ok else i.status for i in warm
        ] == [i.outcome.codelet if i.ok else i.status for i in cold]

    def test_missing_snapshot_returns_false(self, tmp_path):
        domain = build_textediting(fresh=True)
        assert domain.load_cache(tmp_path) is False
        with pytest.raises(CacheSnapshotError):
            load_snapshot(domain.path_cache, domain.cache_file(tmp_path))

    def test_no_stray_tmp_files_after_save(self, tmp_path):
        domain = build_textediting(fresh=True)
        _warm(domain, n=3)
        domain.save_cache(tmp_path)
        domain.save_cache(tmp_path)  # overwrite via atomic replace
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []
        assert len(list(tmp_path.iterdir())) == 1

    def test_outcomes_layer_not_persisted(self, tmp_path):
        domain = build_textediting(fresh=True)
        _warm(domain)
        assert len(domain.path_cache.outcomes) > 0
        domain.save_cache(tmp_path)
        fresh = build_textediting(fresh=True)
        fresh.load_cache(tmp_path)
        assert len(fresh.path_cache.outcomes) == 0


# ---------------------------------------------------------------------------
# Rejection: stale, corrupt, wrong version, wrong domain
# ---------------------------------------------------------------------------


class TestSnapshotRejection:
    def test_stale_grammar_hash_rejected(self, tmp_path):
        domain = _mini_domain(BNF)
        path = tmp_path / "mini.dggtcache"
        write_snapshot(domain.path_cache, path, "mini")

        other = _mini_domain(BNF_OTHER)
        with pytest.raises(CacheSnapshotError, match="stale"):
            load_snapshot(other.path_cache, path)

    def test_wrong_domain_name_rejected(self, tmp_path):
        domain = _mini_domain(BNF)
        path = tmp_path / "mini.dggtcache"
        write_snapshot(domain.path_cache, path, "mini")
        same_grammar = _mini_domain(BNF, name="other")
        with pytest.raises(CacheSnapshotError, match="domain"):
            load_snapshot(
                same_grammar.path_cache, path, domain_name="other"
            )

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.dggtcache"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CacheSnapshotError, match="corrupt"):
            read_snapshot(path)

    def test_non_snapshot_pickle_rejected(self, tmp_path):
        path = tmp_path / "odd.dggtcache"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(CacheSnapshotError, match="corrupt"):
            read_snapshot(path)

    def test_future_format_version_rejected(self, tmp_path):
        domain = _mini_domain(BNF)
        path = tmp_path / "mini.dggtcache"
        write_snapshot(domain.path_cache, path, "mini")
        payload = pickle.loads(path.read_bytes())
        payload["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CacheSnapshotError, match="format version"):
            read_snapshot(path)

    @staticmethod
    def _assert_old_snapshot_rejected(tmp_path, version, old_entry):
        """A snapshot rewritten as format ``version``, each ``paths``
        entry by ``old_entry(key, (encs, sizes))``, is refused, and
        loading it means a cold start."""
        domain = _mini_domain(BNF)
        domain.path_cache.find_paths(domain.graph.start_id, "api:DO")
        path = domain.save_cache(tmp_path)
        payload = pickle.loads(path.read_bytes())
        assert payload["layers"]["paths"]
        payload["format_version"] = version
        payload["layers"]["paths"] = [
            old_entry(key, entry) for key, entry in payload["layers"]["paths"]
        ]
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(
            CacheSnapshotError, match=f"format version {version}"
        ):
            read_snapshot(path)
        fresh = _mini_domain(BNF)
        assert fresh.load_cache(tmp_path) is False
        assert len(fresh.path_cache.paths) == 0

    def test_v2_snapshot_rejected(self, tmp_path):
        """Version 2 stored a ``paths`` entry's encodings alone, where
        version 3 stores ``(encodings, sizes)``."""
        self._assert_old_snapshot_rejected(
            tmp_path, 2, lambda key, entry: (key, entry[0])
        )

    def test_v3_snapshot_rejected(self, tmp_path):
        """Version 3 keyed ``paths`` on all five limits, where version 4
        keys it on the four the search reads (no per-edge cap)."""
        default_cap = PathSearchLimits().max_paths_per_edge

        def five_knob_key(key, entry):
            src, dst, (length, paths, visits, extra) = key
            return (src, dst, (length, paths, visits, default_cap, extra)), entry

        self._assert_old_snapshot_rejected(tmp_path, 3, five_knob_key)

    def test_domain_load_cache_is_failsafe(self, tmp_path):
        # Stale/corrupt snapshots mean a cold start, not a crash.
        domain = _mini_domain(BNF)
        path = snapshot_path(tmp_path, "mini", domain.grammar_hash())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        assert domain.load_cache(tmp_path) is False
        with pytest.raises(CacheSnapshotError):
            load_snapshot(domain.path_cache, path)


# ---------------------------------------------------------------------------
# Capacities: one fixed table, reported by stats
# ---------------------------------------------------------------------------


class TestCapacityConfiguration:
    def test_domain_create_capacities(self):
        # No per-domain sizing: every layer takes the fixed table.
        with pytest.raises(TypeError):
            _mini_domain(BNF, cache_capacities={"paths": 7})
        cache = _mini_domain(BNF).path_cache
        assert cache.capacities == CAPACITIES
        for layer, capacity in CAPACITIES.items():
            assert cache.layer(layer).maxsize == capacity

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown cache layer"):
            _mini_domain(BNF).path_cache.layer("pathz")

    def test_stats_reports_capacities(self):
        stats = _mini_domain(BNF).stats()
        assert {
            layer: stats[f"cache_capacity_{layer}"] for layer in CAPACITIES
        } == {
            "paths": 8192, "conflicts": 4096, "sizes": 65536,
            "merge": 65536, "outcomes": 2048,
        }

    def test_import_respects_smaller_capacity(self, tmp_path):
        domain = build_textediting(fresh=True)
        _warm(domain)
        n_paths = len(domain.path_cache.paths)
        assert n_paths > 4
        path = domain.save_cache(tmp_path)

        small = build_textediting(fresh=True)
        small.path_cache.paths = LruCache(4)
        assert small.load_cache(tmp_path) is True
        assert len(small.path_cache.paths) == 4
        assert path.exists()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestDomainRegistry:
    def test_get_returns_shared_instance(self):
        assert get("textediting") is get("textediting")
        assert load_domain("textediting") is get("textediting")

    def test_fresh_returns_private_instance(self):
        shared = get("textediting")
        assert get("textediting", fresh=True) is not shared
        assert build_textediting(fresh=True) is not build_textediting()

    def test_unknown_domain(self):
        with pytest.raises(DomainError, match="unknown domain"):
            get("nope")

    def test_is_registered(self):
        assert is_registered("textediting")
        assert is_registered("TextEditing")  # case-insensitive
        assert not is_registered("nope")

    def test_register_custom_and_reject_duplicates(self):
        name = "minitest-snapshot"
        register(name, lambda fresh=False: _mini_domain(BNF, name=name))
        try:
            assert is_registered(name)
            assert name in available_domains()
            assert get(name).name == name
            with pytest.raises(DomainError, match="already registered"):
                register(
                    name, lambda fresh=False: _mini_domain(BNF, name=name)
                )
        finally:
            unregister(name)
        assert not is_registered(name)

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(DomainError, match="built-in"):
            unregister("textediting")
        with pytest.raises(DomainError, match="unknown domain"):
            unregister("never-registered")

    def test_clear_cached_domains(self):
        before = get("textediting")
        clear_cached_domains()
        after = get("textediting")
        assert after is not before
