"""Process fan-out of batches: picklability, equivalence, semantics.

The contract of ``synthesize_many(max_workers > 1)`` is byte-identical
results to the serial path — same codelets, same statuses, same error
types, same input order — with each worker rebuilding the domain by name
from the registry.  These tests pin the contract plus the pickle
round-trips everything rides on.
"""

import pickle

import pytest

from repro import Synthesizer, SynthesisTimeout, load_domain
from repro.domains.textediting import build_domain as build_textediting
from repro.domains.textediting.queries import TEXTEDITING_QUERIES
from repro.errors import BNFSyntaxError, ReproError, SynthesisError
from repro.synthesis.result import SynthesisStats

QUERIES = [
    "print every line",
    "zzz qqq xxx",  # unmatchable -> per-query error
    "delete every word that contains numbers",
    "insert ':' at the start of each line",
]


# ---------------------------------------------------------------------------
# Pickle round-trips (what the worker pipe requires)
# ---------------------------------------------------------------------------


class TestPicklability:
    def test_outcome_batch_item(self):
        synth = Synthesizer(build_textediting(fresh=True))
        [item] = synth.synthesize_many(["print every line"])
        clone = pickle.loads(pickle.dumps(item))
        assert clone.ok
        assert clone.index == item.index
        assert clone.query == item.query
        assert clone.outcome.codelet == item.outcome.codelet
        assert clone.outcome.size == item.outcome.size
        assert clone.outcome.stats.as_dict() == item.outcome.stats.as_dict()

    def test_error_batch_item(self):
        synth = Synthesizer(build_textediting(fresh=True))
        [item] = synth.synthesize_many(["zzz qqq xxx"])
        clone = pickle.loads(pickle.dumps(item))
        assert not clone.ok
        assert clone.status == "error"
        assert isinstance(clone.error, SynthesisError)
        assert str(clone.error) == str(item.error)

    def test_synthesis_timeout_round_trip(self):
        exc = SynthesisTimeout(20.0, 21.5)
        exc.partial_stats = SynthesisStats(n_dep_edges=3)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.budget_seconds == 20.0
        assert clone.elapsed_seconds == 21.5
        assert clone.partial_stats.n_dep_edges == 3
        assert str(clone) == str(exc)

    def test_timeout_batch_item(self):
        synth = Synthesizer(build_textediting(fresh=True))
        [item] = synth.synthesize_many(
            ["print every line"], timeout_seconds_each=0
        )
        clone = pickle.loads(pickle.dumps(item))
        assert clone.status == "timeout"
        assert isinstance(clone.error, SynthesisTimeout)
        assert clone.elapsed_seconds == 0

    def test_bnf_syntax_error_keeps_line(self):
        clone = pickle.loads(pickle.dumps(BNFSyntaxError("bad rule", line=7)))
        assert clone.line == 7
        assert "line 7" in str(clone)


# ---------------------------------------------------------------------------
# Backend equivalence & semantics
# ---------------------------------------------------------------------------


def _signature(items):
    return [
        (
            i.index,
            i.query,
            i.status,
            i.outcome.codelet if i.ok else type(i.error).__name__,
            i.outcome.size if i.ok else None,
        )
        for i in items
    ]


class TestProcessBackend:
    def test_order_statuses_and_codelets_match_serial(self):
        synth = Synthesizer(load_domain("textediting"))
        serial = synth.synthesize_many(QUERIES, timeout_seconds_each=20)
        proc = synth.synthesize_many(
            QUERIES,
            timeout_seconds_each=20,
            max_workers=2,
        )
        assert _signature(proc) == _signature(serial)

    def test_full_suite_byte_identical(self):
        queries = [c.query for c in TEXTEDITING_QUERIES]
        synth = Synthesizer(load_domain("textediting"))
        serial = synth.synthesize_many(queries, timeout_seconds_each=20)
        proc = synth.synthesize_many(
            queries,
            timeout_seconds_each=20,
            max_workers=2,
        )
        assert _signature(proc) == _signature(serial)

    def test_per_query_timeout(self):
        synth = Synthesizer(load_domain("textediting"))
        items = synth.synthesize_many(
            QUERIES[:2],
            timeout_seconds_each=0,
            max_workers=2,
        )
        assert [i.status for i in items] == ["timeout", "timeout"]
        assert all(isinstance(i.error, SynthesisTimeout) for i in items)
        assert all(i.elapsed_seconds == 0 for i in items)  # clamped

    def test_per_query_deltas_are_exact_in_workers(self):
        # Each worker runs its queries sequentially against its own cache,
        # so per-query deltas come back scope="query", as serially.
        synth = Synthesizer(load_domain("textediting"))
        items = synth.synthesize_many(QUERIES, max_workers=2)
        for item in items:
            if item.ok:
                assert item.outcome.stats.cache_delta_scope == "query"

    def test_on_result_sees_every_item(self):
        synth = Synthesizer(load_domain("textediting"))
        seen = []
        items = synth.synthesize_many(
            QUERIES, max_workers=2, on_result=seen.append
        )
        assert sorted(i.index for i in seen) == [0, 1, 2, 3]
        assert [i.index for i in items] == [0, 1, 2, 3]

    def test_unregistered_domain_rejected(self):
        domain = build_textediting(fresh=True)
        domain.name = "private"
        synth = Synthesizer(domain)
        with pytest.raises(
            ReproError, match="max_workers > 1 needs domain 'private'"
        ) as err:
            synth.synthesize_many(["print every line"], max_workers=2)
        assert "registry" in str(err.value)

    def test_engine_config_crosses_the_pipe(self):
        from repro.core.dggt import DggtConfig

        synth = Synthesizer(
            load_domain("textediting"),
            config=DggtConfig(orphan_relocation=False),
        )
        serial = synth.synthesize_many(QUERIES, timeout_seconds_each=20)
        proc = synth.synthesize_many(
            QUERIES,
            timeout_seconds_each=20,
            max_workers=2,
        )
        assert _signature(proc) == _signature(serial)


class TestThreadDeltaScope:
    def test_serial_records_exact_deltas(self):
        synth = Synthesizer(build_textediting(fresh=True))
        items = synth.synthesize_many(QUERIES)
        for item in items:
            if item.ok:
                assert item.outcome.stats.cache_delta_scope == "query"

    def test_run_dataset_process_backend(self):
        from repro.eval.harness import run_dataset

        domain = load_domain("textediting")
        cases = TEXTEDITING_QUERIES[:8]
        seq = run_dataset(domain, cases, timeout_seconds=20)
        par = run_dataset(
            domain,
            cases,
            timeout_seconds=20,
            max_workers=2,
        )
        assert [(r.status, r.codelet, r.correct) for r in par] == [
            (r.status, r.codelet, r.correct) for r in seq
        ]
