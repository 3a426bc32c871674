"""Server subsystem: service routing, admission control, HTTP front end,
and the graceful lifecycle (docs/serving.md)."""

import contextlib
import json
import http.client
import os
import pickle
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import Synthesizer, load_domain
from repro.client import HttpClient, ServerError
from repro.errors import ReproError, error_code, SynthesisTimeout
from repro.server import (
    BadRequest,
    ServerConfig,
    SynthesisService,
    http_status,
    parse_request,
    start_http_server,
)
from repro.server.http import _Handler

QUERY = "print every line"
QUERY2 = "delete every word that contains numbers"


@pytest.fixture(scope="module")
def http_setup():
    """One warm service + HTTP server + client shared by the read-only
    HTTP tests (startup costs a domain build; no point paying it per
    test).  Lifecycle tests build their own service."""
    service = SynthesisService(
        ServerConfig(domains=("textediting", "astmatcher"))
    )
    server = start_http_server(service, port=0)
    client = HttpClient(port=server.port)
    yield service, client
    client.close()
    server.shutdown()
    server.server_close()
    service.begin_shutdown()
    assert service.drain(grace_seconds=10) is True
    service.close()


# ---------------------------------------------------------------------------
# Protocol validation
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_minimal(self):
        req = parse_request({"query": " print every line "})
        assert req.query == QUERY
        assert req.domain is None and req.timeout is None
        assert req.priority == "interactive"

    def test_parse_priority(self):
        req = parse_request({"query": "q", "priority": "batch"})
        assert req.priority == "batch"

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("not a dict", "JSON object"),
            ({}, "'query'"),
            ({"query": ""}, "'query'"),
            ({"query": 3}, "'query'"),
            ({"query": "q", "timeout": "soon"}, "'timeout'"),
            ({"query": "q", "timeout": True}, "'timeout'"),
            ({"query": "q", "timeout": -1}, "'timeout'"),
            ({"query": "q", "engine": "gpt"}, "'engine'"),
            ({"query": "q", "include_stats": 1}, "'include_stats'"),
            ({"query": "q", "priority": "bulk"}, "'priority'"),
            ({"query": "q", "priority": 1}, "'priority'"),
            ({"query": "q", "querry": "typo"}, "querry"),
        ],
    )
    def test_parse_rejects(self, payload, fragment):
        with pytest.raises(BadRequest, match=re.escape(fragment)):
            parse_request(payload)

    def test_http_status_mapping(self):
        assert http_status("ok") == 200
        assert http_status("bad_request") == 400
        assert http_status("unknown_domain") == 404
        assert http_status("overloaded") == 429
        assert http_status("shutting_down") == 503
        assert http_status("timeout") == 504
        assert http_status("internal") == 500
        assert http_status("synthesis_failed") == 422  # domain failures

    def test_error_codes_are_stable(self):
        assert error_code(SynthesisTimeout(1.0, 1.1)) == "timeout"
        assert error_code(ReproError("x")) == "error"
        assert error_code(ValueError("x")) == "internal"


# ---------------------------------------------------------------------------
# Service routing + admission
# ---------------------------------------------------------------------------


class TestService:
    def test_serves_all_registered_domains_by_default(self):
        with SynthesisService() as service:
            assert list(service.domain_names()) == [
                "astmatcher", "spreadsheet", "stringxform", "textediting",
            ]

    def test_unknown_configured_domain_fails_fast(self):
        with pytest.raises(ReproError, match="nope"):
            SynthesisService(ServerConfig(domains=("nope",)))

    def test_config_validation(self):
        with pytest.raises(ReproError):
            ServerConfig(engine="carrier-pigeon")
        with pytest.raises(ReproError):
            ServerConfig(max_inflight=0)

    def test_codelet_identical_to_direct_synthesize(self):
        direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            status, payload = s.handle_payload({"query": QUERY})
        assert status == 200
        assert payload["codelet"] == direct.codelet
        assert payload["size"] == direct.size
        assert payload["engine"] == "dggt"

    def test_routes_by_domain_name(self):
        with SynthesisService() as service:
            status, payload = service.handle_payload(
                {"query": "find virtual methods", "domain": "astmatcher"}
            )
            assert status == 200
            direct = Synthesizer(load_domain("astmatcher")).synthesize(
                "find virtual methods"
            )
            assert payload["codelet"] == direct.codelet

    def test_request_timeout_propagates_into_deadline(self):
        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            status, payload = s.handle_payload(
                {"query": QUERY2, "timeout": 0}
            )
        assert status == 504
        assert payload["status"] == "timeout"
        assert payload["error"]["code"] == "timeout"

    def test_timeout_clamped_to_max(self):
        with SynthesisService(ServerConfig(
            domains=("textediting",), max_timeout=30.0,
        )) as s:
            assert s._resolve_timeout(10_000.0) == 30.0
            assert s._resolve_timeout(None) == s.config.default_timeout

    def test_unsynthesizable_query_is_structured(self):
        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            status, payload = s.handle_payload(
                {"query": "zebra giraffe pumpkin", "id": 5}
            )
        assert status == 422
        assert payload["error"]["code"] == "synthesis_failed"
        assert payload["id"] == 5

    def test_request_id_echoed_on_success(self):
        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            _, payload = s.handle_payload({"query": QUERY, "id": "abc"})
        assert payload["id"] == "abc"

    def test_admission_control_rejects_overload(self):
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1,
        ))
        state = service._domains["textediting"]
        inner = state.synthesizers["dggt"]
        entered = threading.Event()
        release = threading.Event()

        class Gated:
            def synthesize(self, query, timeout_seconds=None, **kwargs):
                entered.set()
                release.wait(10)
                return inner.synthesize(query, timeout_seconds, **kwargs)

        state.synthesizers["dggt"] = Gated()
        results = {}

        def first():
            results["first"] = service.handle_payload({"query": QUERY})

        thread = threading.Thread(target=first)
        thread.start()
        assert entered.wait(10)
        status, payload = service.handle_payload({"query": QUERY})
        assert status == 429
        assert payload["error"]["code"] == "overloaded"
        release.set()
        thread.join(10)
        assert results["first"][0] == 200
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()
        counters = service.health()["requests"]
        assert counters["ok"] == 1 and counters["rejected"] == 1

    def test_graceful_shutdown_mid_request(self):
        """begin_shutdown() must let the in-flight request finish and
        answer, while rejecting new work; drain() then reports idle."""
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        state = service._domains["textediting"]
        inner = state.synthesizers["dggt"]
        entered = threading.Event()
        release = threading.Event()

        class Gated:
            def synthesize(self, query, timeout_seconds=None, **kwargs):
                entered.set()
                release.wait(10)
                return inner.synthesize(query, timeout_seconds, **kwargs)

        state.synthesizers["dggt"] = Gated()
        results = {}

        def first():
            results["first"] = service.handle_payload({"query": QUERY})

        thread = threading.Thread(target=first)
        thread.start()
        assert entered.wait(10)
        service.begin_shutdown()
        # New work is rejected while the first request is still running.
        status, payload = service.handle_payload({"query": QUERY})
        assert status == 503
        assert payload["error"]["code"] == "shutting_down"
        assert service.drain(grace_seconds=0.05) is False  # still busy
        release.set()
        thread.join(10)
        assert service.drain(grace_seconds=10) is True
        assert results["first"][0] == 200
        assert results["first"][1]["codelet"].startswith("PRINT(")
        service.close()

    def test_internal_errors_do_not_kill_the_service(self):
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        state = service._domains["textediting"]

        class Exploding:
            def synthesize(self, *args, **kwargs):
                raise RuntimeError("boom")

        state.synthesizers["dggt"] = Exploding()
        status, payload = service.handle_payload({"query": QUERY})
        assert status == 500
        assert payload["error"]["code"] == "internal"
        assert "boom" in payload["error"]["message"]
        # A later request on another engine still works.
        status, payload = service.handle_payload(
            {"query": QUERY, "engine": "hisyn"}
        )
        assert status == 200
        service.close()


# ---------------------------------------------------------------------------
# Per-stage observability (staged pipeline integration)
# ---------------------------------------------------------------------------


def _cold_cache(service, domain="textediting"):
    """Drop the registry domain's warm caches so the first request is a
    deterministic miss (other tests share the same domain instance)."""
    service._domains[domain].domain.path_cache.clear()


class TestStageObservability:
    def test_include_trace_attaches_spans(self):
        from repro.synthesis.stages import STAGE_NAMES

        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            _cold_cache(s)
            status, payload = s.handle_payload(
                {"query": QUERY, "include_trace": True}
            )
            assert status == 200
            trace = payload["trace"]
            assert trace["cache_hit"] is False
            assert [sp["stage"] for sp in trace["spans"]] == list(STAGE_NAMES)
            # Without the flag the payload keeps the legacy shape.
            status, payload = s.handle_payload({"query": QUERY})
            assert status == 200
            assert "trace" not in payload

    def test_stats_aggregates_stage_latency(self):
        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            _cold_cache(s)
            # Every dispatched request is traced, include_trace or not.
            s.handle_payload({"query": QUERY})
            s.handle_payload({"query": QUERY})
            stages = s.stats()["stages"]
            assert stages["observed"] == 2
            assert stages["cache_hits"] == 1  # second hit the outcome cache
            for stage in ("parse", "merge", "codegen"):
                section = stages["stages"][stage]
                assert section["count"] == 1
                assert section["p50_ms"] >= 0.0
                assert section["p99_ms"] >= section["p50_ms"] >= 0.0

    def test_timeout_response_names_stage(self):
        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            status, payload = s.handle_payload(
                {"query": QUERY2, "timeout": 0, "include_trace": True}
            )
            assert status == 504
            assert payload["error"]["stage"] == "parse"
            assert payload["trace"]["spans"][-1]["status"] == "timeout"

    def test_unknown_engine_is_invalid_request(self):
        from repro.server.protocol import SynthesisRequest

        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            # parse_request blocks unknown engines at the transport edge;
            # a hand-built request exercises the service-layer guard.
            status, payload = s.synthesize(
                SynthesisRequest(query=QUERY, engine="nope", id=7)
            )
            assert status == 400
            assert payload["error"]["code"] == "invalid_request"
            assert "unknown engine" in payload["error"]["message"]
            assert payload["id"] == 7
            # The service survives and keeps serving valid engines.
            status, _ = s.handle_payload({"query": QUERY})
            assert status == 200


# ---------------------------------------------------------------------------
# Bounded queueing + backpressure (scheduler integration)
# ---------------------------------------------------------------------------


def _gate(service, domain="textediting", engine="dggt"):
    """Replace a domain's synthesizer with a gated wrapper.  Returns
    (entered, release, calls): ``entered`` is set when a request reaches
    the synthesizer, every call blocks until ``release`` is set, and
    ``calls`` records the dispatched queries."""
    state = service._domains[domain]
    inner = state.synthesizers[engine]
    entered = threading.Event()
    release = threading.Event()
    calls = []

    class Gated:
        def synthesize(self, query, timeout_seconds=None, **kwargs):
            calls.append(query)
            entered.set()
            release.wait(10)
            return inner.synthesize(query, timeout_seconds, **kwargs)

    state.synthesizers[engine] = Gated()
    return entered, release, calls


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestQueueing:
    def test_config_validation(self):
        with pytest.raises(ReproError):
            ServerConfig(queue_depth=-1)
        with pytest.raises(ReproError):
            ServerConfig(domain_budgets={"textediting": 0})
        with pytest.raises(ReproError, match="unserved"):
            SynthesisService(ServerConfig(
                domains=("textediting",), domain_budgets={"astmatcher": 1},
            ))

    def test_no_queue_wait_field_without_queueing(self):
        """queue_depth=0 (the default) keeps today's payload byte-shape:
        no queue_wait_ms key anywhere."""
        with SynthesisService(ServerConfig(domains=("textediting",))) as s:
            status, payload = s.handle_payload({"query": QUERY})
            assert status == 200
            assert "queue_wait_ms" not in payload
            scheduler = s.stats()["scheduler"]
            assert scheduler["queueing_enabled"] is False
            assert scheduler["queue_capacity"] == 0

    def test_burst_over_capacity_zero_shed_identical_codelets(self):
        """A burst of 4x max_inflight with generous deadlines and enough
        queue depth: every request succeeds and every codelet is
        byte-identical to direct synthesis (the acceptance criterion)."""
        direct = {
            q: Synthesizer(load_domain("textediting")).synthesize(q).codelet
            for q in (QUERY, QUERY2)
        }
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1, queue_depth=8,
        ))
        entered, release, _ = _gate(service)
        queries = [QUERY, QUERY2] * 2  # 4x the single execution slot
        results = [None] * len(queries)

        def hit(i, q):
            results[i] = service.handle_payload({"query": q, "timeout": 30})

        threads = [
            threading.Thread(target=hit, args=(i, q))
            for i, q in enumerate(queries)
        ]
        for t in threads:
            t.start()
        assert entered.wait(10)
        # One request holds the slot; the other three are waiting.
        assert _wait_until(lambda: service.queued == 3)
        release.set()
        for t in threads:
            t.join(30)
        for q, (status, payload) in zip(queries, results):
            assert status == 200
            assert payload["codelet"] == direct[q]
            assert payload["queue_wait_ms"] >= 0.0
        scheduler = service.stats()["scheduler"]
        assert scheduler["counters"]["shed"] == 0
        assert scheduler["counters"]["expired"] == 0
        assert scheduler["counters"]["queued"] == 3
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()

    def test_deadline_expired_in_queue_never_dispatches(self):
        """A request whose deadline passes while waiting fails with
        deadline_exceeded (504) and never reaches a worker."""
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1, queue_depth=4,
        ))
        entered, release, calls = _gate(service)
        results = {}

        def first():
            results["first"] = service.handle_payload(
                {"query": QUERY, "timeout": 30}
            )

        thread = threading.Thread(target=first)
        thread.start()
        assert entered.wait(10)
        status, payload = service.handle_payload(
            {"query": QUERY2, "timeout": 0.2}
        )
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"
        assert payload["status"] == "timeout"
        assert payload["queue_wait_ms"] >= 200.0
        assert "never dispatched" in payload["error"]["message"]
        assert calls == [QUERY]  # the expired request never ran
        release.set()
        thread.join(10)
        assert results["first"][0] == 200
        counters = service.health()["requests"]
        assert counters["expired"] == 1 and counters["ok"] == 1
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()

    def test_full_queue_sheds_with_retry_after(self):
        """Queue full -> 429 with retry_after_ms in the error body and a
        standard Retry-After header on the wire."""
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1, queue_depth=1,
        ))
        server = start_http_server(service, port=0)
        entered, release, _ = _gate(service)
        results = {}

        def run(key):
            results[key] = service.handle_payload(
                {"query": QUERY, "timeout": 30}
            )

        inflight = threading.Thread(target=run, args=("inflight",))
        inflight.start()
        assert entered.wait(10)
        queued = threading.Thread(target=run, args=("queued",))
        queued.start()
        assert _wait_until(lambda: service.queued == 1)
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/synthesize",
                    body=json.dumps({"query": QUERY}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 429
            assert payload["error"]["code"] == "overloaded"
            assert "queue full" in payload["error"]["message"]
            hint = payload["error"]["retry_after_ms"]
            assert isinstance(hint, int) and hint >= 50
            header = response.getheader("Retry-After")
            assert header is not None and int(header) >= 1
        finally:
            release.set()
            inflight.join(30)
            queued.join(30)
            server.shutdown()
            server.server_close()
        assert results["inflight"][0] == 200
        assert results["queued"][0] == 200
        assert service.stats()["scheduler"]["counters"]["shed"] == 1
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()

    def test_legacy_shed_carries_no_retry_after(self):
        """queue_depth=0 overload answers are byte-compatible with the
        pre-queueing server: no retry_after_ms field, no header."""
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1,
        ))
        server = start_http_server(service, port=0)
        entered, release, _ = _gate(service)
        thread = threading.Thread(
            target=service.handle_payload, args=({"query": QUERY},)
        )
        thread.start()
        assert entered.wait(10)
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/synthesize",
                    body=json.dumps({"query": QUERY}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 429
            assert "retry_after_ms" not in payload["error"]
            assert response.getheader("Retry-After") is None
            assert "at capacity" in payload["error"]["message"]
        finally:
            release.set()
            thread.join(30)
            server.shutdown()
            server.server_close()
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()

    def test_shutdown_with_nonempty_queue(self):
        """SIGTERM semantics with waiters: the in-flight request finishes
        and answers; queued requests fail with shutting_down; drain then
        reports idle (the acceptance criterion for graceful shutdown)."""
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1, queue_depth=4,
        ))
        entered, release, calls = _gate(service)
        results = {}

        def run(key):
            results[key] = service.handle_payload(
                {"query": QUERY, "timeout": 30}
            )

        inflight = threading.Thread(target=run, args=("inflight",))
        inflight.start()
        assert entered.wait(10)
        queued = threading.Thread(target=run, args=("queued",))
        queued.start()
        assert _wait_until(lambda: service.queued == 1)
        service.begin_shutdown()
        queued.join(10)
        status, payload = results["queued"]
        assert status == 503
        assert payload["error"]["code"] == "shutting_down"
        assert calls == [QUERY]  # the queued request never dispatched
        assert service.drain(grace_seconds=0.05) is False  # still busy
        release.set()
        inflight.join(10)
        assert results["inflight"][0] == 200
        assert service.drain(grace_seconds=10) is True
        assert service.stats()["scheduler"]["counters"]["drained"] == 1
        service.close()

    def test_domain_budget_no_cross_domain_blocking(self):
        """One domain at its budget queues its own requests without
        consuming the other domain's capacity."""
        service = SynthesisService(ServerConfig(
            domains=("textediting", "astmatcher"),
            max_inflight=2, queue_depth=4,
            domain_budgets={"textediting": 1},
        ))
        entered, release, _ = _gate(service, domain="textediting")
        results = {}

        def run(key, body):
            results[key] = service.handle_payload(body)

        inflight = threading.Thread(
            target=run, args=("te1", {"query": QUERY, "timeout": 30})
        )
        inflight.start()
        assert entered.wait(10)
        waiter = threading.Thread(
            target=run, args=("te2", {"query": QUERY2, "timeout": 30})
        )
        waiter.start()
        assert _wait_until(lambda: service.queued == 1)
        # astmatcher is not gated and has its own slot: it completes while
        # the older textediting waiter stays queued behind its budget.
        status, payload = service.handle_payload(
            {"query": "find virtual methods", "domain": "astmatcher"}
        )
        assert status == 200
        assert payload["queue_wait_ms"] == 0.0
        assert service.queued == 1
        release.set()
        inflight.join(30)
        waiter.join(30)
        assert results["te1"][0] == 200
        assert results["te2"][0] == 200
        assert results["te2"][1]["queue_wait_ms"] > 0.0
        snap = service.stats()["scheduler"]
        assert snap["domains"]["textediting"]["budget"] == 1
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()


# ---------------------------------------------------------------------------
# Client retry behaviour (opt-in backoff on overloaded)
# ---------------------------------------------------------------------------


class TestClientRetry:
    def test_retry_after_ms_surfaced_on_server_error(self):
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1, queue_depth=1,
        ))
        server = start_http_server(service, port=0)
        client = HttpClient(port=server.port)
        entered, release, _ = _gate(service)
        inflight = threading.Thread(
            target=service.handle_payload,
            args=({"query": QUERY, "timeout": 30},),
        )
        inflight.start()
        assert entered.wait(10)
        queued = threading.Thread(
            target=service.handle_payload,
            args=({"query": QUERY, "timeout": 30},),
        )
        queued.start()
        assert _wait_until(lambda: service.queued == 1)
        try:
            with pytest.raises(ServerError) as info:
                client.synthesize(QUERY)
            assert info.value.code == "overloaded"
            assert info.value.retry_after_ms >= 50
        finally:
            release.set()
            inflight.join(30)
            queued.join(30)
            client.close()
            server.shutdown()
            server.server_close()
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()

    def test_retries_recover_from_overload(self):
        """HttpClient(retries=) keeps retrying 429s (and only 429s) until
        capacity frees up."""
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1,
        ))
        server = start_http_server(service, port=0)
        entered, release, _ = _gate(service)
        inflight = threading.Thread(
            target=service.handle_payload, args=({"query": QUERY},)
        )
        inflight.start()
        assert entered.wait(10)
        releaser = threading.Timer(0.2, release.set)
        releaser.start()
        client = HttpClient(port=server.port, retries=20, backoff=0.05)
        try:
            payload = client.synthesize(QUERY)
            assert payload["status"] == "ok"
            # Non-overload errors are never retried.
            with pytest.raises(ServerError) as info:
                client.synthesize(QUERY, domain="nope")
            assert info.value.code == "unknown_domain"
        finally:
            releaser.cancel()
            release.set()
            inflight.join(30)
            client.close()
            server.shutdown()
            server.server_close()
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()

    def test_retry_config_validation(self):
        with pytest.raises(ValueError):
            HttpClient(retries=-1)
        with pytest.raises(ValueError):
            HttpClient(backoff=-0.1)


# ---------------------------------------------------------------------------
# Hot snapshot reload (POST /admin/reload, SIGHUP)
# ---------------------------------------------------------------------------


class TestReload:
    def _warm_snapshot(self, tmp_path):
        domain = load_domain("textediting", fresh=True)
        Synthesizer(domain).synthesize(QUERY)
        domain.save_cache(tmp_path)

    def test_reload_adopts_new_snapshot(self, tmp_path):
        """A server started cold adopts a snapshot written afterwards —
        the regenerate-and-reload runbook."""
        with SynthesisService(ServerConfig(
            domains=("textediting",), cache_dir=str(tmp_path),
        )) as service:
            assert service.health()["domains"]["textediting"][
                "snapshot_loaded"] is False
            self._warm_snapshot(tmp_path)
            result = service.reload_snapshots()
            assert result["status"] == "ok"
            assert result["reloads"] == 1
            assert result["domains"]["textediting"]["snapshot_loaded"] is True
            info = service.health()["domains"]["textediting"]
            assert info["snapshot_loaded"] is True
            assert info["cache_entries"]["paths"] > 0
            status, _ = service.handle_payload({"query": QUERY})
            assert status == 200

    def test_reload_with_explicit_cache_dir(self, tmp_path):
        self._warm_snapshot(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        with SynthesisService(ServerConfig(
            domains=("textediting",), cache_dir=str(empty),
        )) as service:
            result = service.reload_snapshots(str(tmp_path))
            assert result["cache_dir"] == str(tmp_path)
            assert result["domains"]["textediting"]["snapshot_loaded"] is True
            # The new directory sticks for subsequent parameterless reloads.
            assert service.reload_snapshots()["cache_dir"] == str(tmp_path)

    def test_reload_missing_snapshot_keeps_serving(self, tmp_path):
        with SynthesisService(ServerConfig(
            domains=("textediting",), cache_dir=str(tmp_path),
        )) as service:
            result = service.reload_snapshots()
            assert result["domains"]["textediting"]["snapshot_loaded"] is False
            status, _ = service.handle_payload({"query": QUERY})
            assert status == 200

    def test_http_admin_reload_endpoint(self, tmp_path):
        self._warm_snapshot(tmp_path)
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        server = start_http_server(service, port=0)
        client = HttpClient(port=server.port)
        try:
            result = client.reload(cache_dir=str(tmp_path))
            assert result["status"] == "ok"
            assert result["domains"]["textediting"]["snapshot_loaded"] is True
            assert client.stats()["reloads"] == 1
            # Body validation.
            status, payload = client.request(
                "POST", "/admin/reload", {"cache_dir": 5}
            )
            assert status == 400 and payload["error"]["code"] == "bad_request"
            status, payload = client.request(
                "POST", "/admin/reload", {"nope": 1}
            )
            assert status == 400 and "unknown reload field" in (
                payload["error"]["message"]
            )
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            service.begin_shutdown()
            assert service.drain(grace_seconds=10) is True
            service.close()

    def test_reload_mid_traffic_drops_nothing(self, tmp_path):
        """Reload while requests are in flight and queued: no request
        fails, every codelet stays correct (the acceptance criterion)."""
        self._warm_snapshot(tmp_path)
        direct = {
            q: Synthesizer(load_domain("textediting")).synthesize(q).codelet
            for q in (QUERY, QUERY2)
        }
        service = SynthesisService(ServerConfig(
            domains=("textediting",), cache_dir=str(tmp_path),
            max_inflight=2, queue_depth=16,
        ))
        results = []
        lock = threading.Lock()

        def worker(q):
            for _ in range(5):
                out = service.handle_payload({"query": q, "timeout": 30})
                with lock:
                    results.append((q, out))

        threads = [
            threading.Thread(target=worker, args=(q,))
            for q in (QUERY, QUERY2) * 2
        ]
        for t in threads:
            t.start()
        for _ in range(3):
            assert service.reload_snapshots()["status"] == "ok"
            time.sleep(0.02)
        for t in threads:
            t.join(60)
        assert len(results) == 20
        for q, (status, payload) in results:
            assert status == 200, payload
            assert payload["codelet"] == direct[q]
        assert service.stats()["reloads"] == 3
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()


# ---------------------------------------------------------------------------
# Snapshot preload at startup
# ---------------------------------------------------------------------------


class TestStartupSnapshots:
    def test_missing_snapshot_serves_cold(self, tmp_path):
        with SynthesisService(ServerConfig(
            domains=("textediting",), cache_dir=str(tmp_path),
        )) as service:
            health = service.health()
            info = health["domains"]["textediting"]
            assert info["snapshot_loaded"] is False
            status, payload = service.handle_payload({"query": QUERY})
            assert status == 200 and payload["status"] == "ok"

    def test_stale_snapshot_rejected_but_serves(self, tmp_path):
        # Write a real snapshot, then tamper its grammar hash so the
        # loader must treat it as stale from a pre-change grammar.
        domain = load_domain("textediting", fresh=True)
        Synthesizer(domain).synthesize(QUERY)
        target = domain.save_cache(tmp_path)
        payload = pickle.loads(target.read_bytes())
        payload["grammar_hash"] = "0" * 64
        target.write_bytes(pickle.dumps(payload))

        with SynthesisService(ServerConfig(
            domains=("textediting",), cache_dir=str(tmp_path),
        )) as service:
            info = service.health()["domains"]["textediting"]
            assert info["snapshot_loaded"] is False
            status, _ = service.handle_payload({"query": QUERY})
            assert status == 200

    def test_warm_snapshot_preloaded(self, tmp_path):
        domain = load_domain("textediting", fresh=True)
        Synthesizer(domain).synthesize(QUERY)
        domain.save_cache(tmp_path)

        with SynthesisService(ServerConfig(
            domains=("textediting",), cache_dir=str(tmp_path),
        )) as service:
            info = service.health()["domains"]["textediting"]
            assert info["snapshot_loaded"] is True
            assert info["cache_entries"]["paths"] > 0


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


class TestHttp:
    def test_synthesize_identical_to_direct(self, http_setup):
        _, client = http_setup
        direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
        payload = client.synthesize(QUERY, id=1)
        assert payload["codelet"] == direct.codelet
        assert payload["status"] == "ok"
        assert payload["id"] == 1

    def test_include_stats(self, http_setup):
        _, client = http_setup
        payload = client.synthesize(QUERY, include_stats=True)
        assert payload["stats"]["cache_delta_scope"] == "batch"
        assert "combinations" in payload["stats"]

    def test_healthz_fast_with_astmatcher_resident(self, http_setup):
        # Hashing ASTMatcher's grammar takes tens of milliseconds; the
        # endpoint a load balancer polls must not pay it per call.
        _, client = http_setup
        assert "astmatcher" in client.health()["domains"]
        elapsed = []
        for _ in range(20):
            started = time.perf_counter()
            client.health()
            elapsed.append(time.perf_counter() - started)
        assert statistics.median(elapsed) < 0.010, elapsed

    def test_concurrent_requests_all_succeed(self, http_setup):
        _, client = http_setup
        direct = {
            q: Synthesizer(load_domain("textediting")).synthesize(q).codelet
            for q in (QUERY, QUERY2)
        }
        queries = [QUERY, QUERY2] * 4
        results = [None] * len(queries)

        def hit(i, q):
            results[i] = client.synthesize(q)

        threads = [
            threading.Thread(target=hit, args=(i, q))
            for i, q in enumerate(queries)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert all(r is not None for r in results)
        for q, r in zip(queries, results):
            assert r["codelet"] == direct[q]

    def test_unknown_domain_404(self, http_setup):
        _, client = http_setup
        with pytest.raises(ServerError) as info:
            client.synthesize(QUERY, domain="nope")
        assert info.value.code == "unknown_domain"
        assert info.value.http_status == 404

    def test_per_request_timeout_504(self, http_setup):
        _, client = http_setup
        with pytest.raises(ServerError) as info:
            client.synthesize(QUERY2, timeout=0)
        assert info.value.code == "timeout"
        assert info.value.http_status == 504
        assert info.value.payload["status"] == "timeout"

    def test_malformed_json_body_400(self, http_setup):
        _, client = http_setup
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "POST", "/synthesize", body=b"{oops",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "malformed" in payload["error"]["message"]

    def test_missing_endpoint_404(self, http_setup):
        _, client = http_setup
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        status, _ = client.request("POST", "/also-nope", {"query": QUERY})
        assert status == 404

    def test_healthz_payload(self, http_setup):
        _, client = http_setup
        health = client.health()
        assert health["status"] == "ok"
        assert "backend" not in health  # one serving model, nothing to name
        assert set(health["domains"]) == {"textediting", "astmatcher"}
        info = health["domains"]["textediting"]
        assert info["apis"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", info["grammar_hash"])
        assert set(info["cache_entries"]) == {
            "paths", "conflicts", "sizes", "merge", "outcomes",
        }

    def test_include_trace_over_http(self, http_setup):
        _, client = http_setup
        payload = client.synthesize(QUERY, include_trace=True)
        trace = payload["trace"]
        assert isinstance(trace["total_ms"], (int, float))
        if trace["cache_hit"]:  # earlier tests may have warmed this query
            assert trace["spans"] == []
        else:
            assert [s["stage"] for s in trace["spans"]] == [
                "parse", "prune", "word_to_api", "edge_to_path", "merge",
                "codegen",
            ]
        assert "trace" not in client.synthesize(QUERY)

    def test_stats_exposes_stage_percentiles(self, http_setup):
        _, client = http_setup
        client.synthesize(QUERY)
        stages = client.stats()["stages"]
        assert stages["observed"] >= 1
        for section in stages["stages"].values():
            assert set(section) == {"count", "mean_ms", "p50_ms", "p99_ms"}

    def test_stats_payload_tracks_requests(self, http_setup):
        _, client = http_setup
        before = client.stats()
        client.synthesize(QUERY)
        after = client.stats()
        assert after["requests"]["ok"] >= before["requests"]["ok"] + 1
        counters = after["domains"]["textediting"]["counters"]
        assert counters["path_cache_misses"] + counters["path_cache_hits"] > 0

    def test_domains_endpoint(self, http_setup):
        _, client = http_setup
        assert client.domains() == ["astmatcher", "textediting"]
        details = client.domain_details()
        assert set(details) == {"astmatcher", "textediting"}
        entry = details["textediting"]
        assert entry["apis"] == 56
        assert len(entry["grammar_hash"]) == 64
        # hand-written domains carry no pack provenance
        assert "pack" not in entry

    def test_healthz_503_while_draining(self):
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        server = start_http_server(service, port=0)
        client = HttpClient(port=server.port)
        try:
            service.begin_shutdown()
            status, payload = client.request("GET", "/healthz")
            assert status == 503
            assert payload["status"] == "draining"
            with pytest.raises(ServerError) as info:
                client.synthesize(QUERY)
            assert info.value.code == "shutting_down"
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            service.close()


# ---------------------------------------------------------------------------
# HttpClient connection management (keep-alive, retry-on-stale, close)
# ---------------------------------------------------------------------------


class TestHttpClientKeepAlive:
    def test_connection_reused_across_requests(self, http_setup):
        _, shared = http_setup
        with HttpClient(port=shared.port) as client:
            assert client.request("GET", "/healthz")[0] == 200
            first_sock = client._local.conn.sock
            assert first_sock is not None
            assert client.request("GET", "/stats")[0] == 200
            assert client.synthesize(QUERY)["status"] == "ok"
            # Same socket served all three requests — no per-call TCP.
            assert client._local.conn.sock is first_sock

    def test_stale_connection_retried_once_transparently(self, http_setup):
        _, shared = http_setup
        with HttpClient(port=shared.port) as client:
            assert client.request("GET", "/healthz")[0] == 200
            # Simulate the server idle-closing the socket between
            # requests; the next call must reconnect, not raise.
            client._local.conn.sock.close()
            status, payload = client.request("GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"

    def test_fresh_connection_failure_propagates(self):
        # Nothing listens here: the very first attempt has no prior
        # socket, so there is no "stale" to blame and no retry.
        dead = bind_free_port_then_close()
        client = HttpClient(port=dead, connect_timeout=0.5)
        with pytest.raises(OSError):
            client.request("GET", "/healthz")
        client.close()

    def test_close_releases_sockets_and_client_stays_usable(
        self, http_setup
    ):
        _, shared = http_setup
        client = HttpClient(port=shared.port)
        assert client.request("GET", "/healthz")[0] == 200
        assert len(client._connections) == 1
        client.close()
        assert client._connections == []
        # close() is not a poison pill: the next request reconnects,
        # and the next close() releases that socket too.
        assert client.request("GET", "/healthz")[0] == 200
        [conn] = client._connections
        client.close()
        assert conn.sock is None and client._connections == []

    def test_close_covers_other_threads_connections(self, http_setup):
        _, shared = http_setup
        client = HttpClient(port=shared.port)
        assert client.request("GET", "/healthz")[0] == 200
        worker_status = []
        thread = threading.Thread(
            target=lambda: worker_status.append(
                client.request("GET", "/healthz")[0]
            )
        )
        thread.start()
        thread.join(timeout=10)
        assert worker_status == [200]
        # One persistent connection per thread that used the client.
        assert len(client._connections) == 2
        client.close()
        assert client._connections == []

    def test_keep_alive_false_keeps_per_call_behaviour(self, http_setup):
        _, shared = http_setup
        client = HttpClient(port=shared.port, keep_alive=False)
        assert client.request("GET", "/healthz")[0] == 200
        assert client.synthesize(QUERY)["status"] == "ok"
        assert client._connections == []  # nothing persisted

    def test_priority_accepted_over_the_wire(self, http_setup):
        _, shared = http_setup
        payload = shared.synthesize(QUERY, priority="batch")
        assert payload["status"] == "ok"
        with pytest.raises(ServerError) as info:
            shared.synthesize(QUERY, priority="urgent")
        assert info.value.code == "bad_request"

    def test_back_to_back_round_trips_do_not_stall(self):
        """A response leaves as a header write and a body write.  Without
        TCP_NODELAY on the server's socket, Nagle's algorithm holds the
        body until the client's delayed ACK (~40 ms) on a reused
        connection, so every round trip here took ~44 ms.  (TextEditing
        only: ``health()`` hashes each domain's grammar, ~75 ms for
        ASTMatcher's.)"""
        with _textediting_server() as (_, server):
            with HttpClient(port=server.port) as client:
                assert client.synthesize(QUERY)["status"] == "ok"  # warm
                healthz = _median_ms(
                    lambda: client.request("GET", "/healthz")
                )
                synthesize = _median_ms(lambda: client.synthesize(QUERY))
        assert healthz < 20.0, healthz
        assert synthesize < 20.0, synthesize


def _median_ms(call, n=20):
    """Median wall time of ``n`` back-to-back ``call()``s, in ms."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


@contextlib.contextmanager
def _textediting_server():
    """A test-local TextEditing service behind HTTP; yields
    (service, server)."""
    service = SynthesisService(ServerConfig(domains=("textediting",)))
    server = start_http_server(service, port=0)
    try:
        yield service, server
    finally:
        server.shutdown()
        server.server_close()
        service.begin_shutdown()
        assert service.drain(grace_seconds=10) is True
        service.close()


@pytest.fixture
def short_timeout_server(monkeypatch):
    """A test-local server whose handlers give up on a socket read or
    write after 0.5 s.  Yields (service, server)."""
    # Served handlers must time out too (None would block forever);
    # only the length is shortened here.
    assert _Handler.timeout is not None
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    with _textediting_server() as pair:
        yield pair


def _raw_post(port, body, declared_length=None):
    """Open a raw socket and send a POST /synthesize whose
    Content-Length may claim more bytes than ``body`` has."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    length = len(body) if declared_length is None else declared_length
    sock.sendall(
        b"POST /synthesize HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (length, body)
    )
    return sock


def _closed_by_peer(sock, timeout):
    """True once the server closes ``sock`` (EOF or reset) within
    ``timeout`` seconds without sending anything."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1, socket.MSG_PEEK) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


class TestHttpTransportRobustness:
    def test_stalled_body_is_closed_and_others_are_served(
        self, short_timeout_server
    ):
        _, server = short_timeout_server
        # Declares 100 body bytes, sends one, then goes quiet.
        stalled = _raw_post(server.port, b"{", declared_length=100)
        try:
            with HttpClient(port=server.port) as client:
                status, payload = client.request(
                    "POST", "/synthesize", {"query": QUERY}
                )
            assert status == 200, payload
            assert _closed_by_peer(stalled, timeout=5.0)
        finally:
            stalled.close()

    def test_idle_connection_closed_by_server_is_retried(
        self, short_timeout_server
    ):
        _, server = short_timeout_server
        with HttpClient(port=server.port) as client:
            assert client.request("GET", "/healthz")[0] == 200
            idle = client._local.conn.sock
            assert _closed_by_peer(idle, timeout=5.0)
            status, payload = client.request("GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            assert client._local.conn.sock is not idle

    def test_peer_hang_up_prints_no_traceback(
        self, short_timeout_server, capfd
    ):
        service, server = short_timeout_server
        entered, release, _ = _gate(service)
        # process_request_thread calls shutdown_request last, after any
        # handle_error traceback: its return means the handler is done.
        finished = threading.Event()
        shutdown_request = server.shutdown_request

        def shutdown_and_signal(request):
            shutdown_request(request)
            finished.set()

        server.shutdown_request = shutdown_and_signal
        sock = _raw_post(server.port, json.dumps({"query": QUERY}).encode())
        assert entered.wait(10)
        # Hang up with a reset while the request is in synthesis, so
        # the response write meets a dead peer.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        release.set()
        assert finished.wait(10)
        assert "Traceback" not in capfd.readouterr().err


def _responses(raw):
    """Split the bytes a server wrote into ``(status, headers, payload)``
    responses (header names lower-cased, interim 1xx kept with a None
    payload).  Bytes that do not start with a status line are an error:
    every answer, refusals included, must be a framed HTTP/1.1 one."""
    out = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head: {head[:200]!r}"
        lines = head.split(b"\r\n")
        assert lines[0].startswith(b"HTTP/1.1 "), f"no status line: {head!r}"
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode()] = value.strip().decode()
        if status < 200:
            out.append((status, headers, None))
            continue
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        assert len(body) == length, "truncated body"
        out.append((status, headers, json.loads(body)))
    return out


def _exchange(port, data, *, timeout=10.0):
    """Send ``data`` on a fresh connection and return every byte the
    server writes until it closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _read_one(reader):
    """Read exactly one framed response from ``reader`` (a kept-alive
    socket's ``makefile("rb")``)."""
    head = reader.readline()
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline()
        assert line, f"connection closed mid-head: {head!r}"
        head += line
    length = int(re.search(rb"(?i)\r\ncontent-length: *(\d+)", head)[1])
    return _responses(head + reader.read(length))[0]


def _healthz(extra=b"", version=b"HTTP/1.1"):
    return (b"GET /healthz " + version + b"\r\nHost: localhost\r\n"
            + extra + b"\r\n")


_SYNTH_BODY = json.dumps({"query": QUERY}).encode()


def _assert_one_refusal(raw, status):
    """Exactly one JSON ``bad_request`` answer, marked Connection: close
    (the caller has already seen the server close the connection)."""
    answers = _responses(raw)
    assert len(answers) == 1, answers
    got_status, headers, payload = answers[0]
    assert got_status == status, answers
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert payload["status"] == "error" and payload["id"] is None
    assert payload["error"]["code"] == "bad_request"
    return payload["error"]["message"]


class TestHttpFraming:
    """Bodies are framed by one Content-Length only (RFC 9112 §6.3)."""

    def test_chunked_post_gets_one_json_error_then_close(self, http_setup):
        _, client = http_setup
        chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(_SYNTH_BODY), _SYNTH_BODY)
        raw = _exchange(client.port, (
            b"POST /synthesize HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + chunk
        ))
        message = _assert_one_refusal(raw, 501)
        assert "Transfer-Encoding" in message

    def test_transfer_encoding_with_content_length_refused(self, http_setup):
        _, client = http_setup
        raw = _exchange(client.port, (
            b"POST /synthesize HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: %d\r\nTransfer-Encoding: identity\r\n\r\n%s"
            % (len(_SYNTH_BODY), _SYNTH_BODY)
        ))
        _assert_one_refusal(raw, 501)

    def test_differing_content_lengths_refused(self, http_setup):
        _, client = http_setup
        raw = _exchange(client.port, (
            b"POST /synthesize HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 5\r\nContent-Length: %d\r\n\r\n%s"
            % (len(_SYNTH_BODY), _SYNTH_BODY)
        ))
        message = _assert_one_refusal(raw, 400)
        assert "Content-Length" in message

    def test_equal_content_lengths_accepted(self, http_setup):
        _, client = http_setup
        with socket.create_connection(("127.0.0.1", client.port),
                                      timeout=10) as sock:
            sock.sendall(
                b"POST /synthesize HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n%s"
                % (len(_SYNTH_BODY), len(_SYNTH_BODY), _SYNTH_BODY)
            )
            status, _, payload = _read_one(sock.makefile("rb"))
        assert status == 200 and payload["status"] == "ok", payload

    def test_get_body_is_drained_before_the_next_request(self, http_setup):
        _, client = http_setup
        with socket.create_connection(("127.0.0.1", client.port),
                                      timeout=10) as sock:
            sock.sendall(_healthz(b"Content-Length: 4\r\n") + b"abcd"
                         + _healthz())
            reader = sock.makefile("rb")
            assert _read_one(reader)[0] == 200
            assert _read_one(reader)[0] == 200


class TestHttpTransportErrors:
    """Every transport-level refusal is one JSON answer with a status
    line, then the connection closes."""

    @pytest.mark.parametrize("request_bytes, status, fragment", [
        (b"GET /healthz\r\n\r\n", 400, "request line"),  # HTTP/0.9
        (b"GARBAGE\r\n\r\n", 400, "request line"),
        (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400, "request line"),
        (b"GET /healthz HTTX/1.1\r\n\r\n", 400, "HTTP version"),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "not supported"),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414, "too long"),
        (_healthz(b"X-Big: " + b"b" * 70000 + b"\r\n"), 431, "too long"),
        (_healthz(b"X-Many: 1\r\n" * 101), 431, "100 headers"),
        (_healthz(b"no colon here\r\n"), 400, "header line"),
        (_healthz(b"X-Space : 1\r\n"), 400, "header line"),
        (_healthz(b"Content-Length: -1\r\n"), 400, "Content-Length"),
        (b"BREW /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n", 501,
         "BREW"),
        (b"PUT /synthesize HTTP/1.1\r\nHost: localhost\r\n\r\n", 501,
         "PUT"),
    ], ids=["http09", "garbage", "four-words", "bad-version", "http2",
            "long-line", "long-header", "101-headers", "no-colon",
            "space-before-colon", "negative-length", "brew", "put"])
    def test_refusal_is_json_then_close(
        self, http_setup, request_bytes, status, fragment
    ):
        _, client = http_setup
        message = _assert_one_refusal(
            _exchange(client.port, request_bytes), status
        )
        assert fragment in message

    def test_one_hundred_headers_are_accepted(self, http_setup):
        _, client = http_setup
        with socket.create_connection(("127.0.0.1", client.port),
                                      timeout=10) as sock:
            sock.sendall(_healthz(b"X-Many: 1\r\n" * 99))  # + Host = 100
            assert _read_one(sock.makefile("rb"))[0] == 200

    def test_server_still_serves_after_refusals(self, http_setup):
        _, client = http_setup
        _exchange(client.port, b"GARBAGE\r\n\r\n")
        assert client.health()["status"] == "ok"


class TestHttpConnectionSemantics:
    def test_expect_100_continue_on_a_large_body(self, http_setup):
        """What curl sends for a body over 1 KB: the interim
        ``100 Continue`` comes before the body is sent, then the
        answer."""
        _, client = http_setup
        body = json.dumps({"query": QUERY, "id": "x" * 1500}).encode()
        with socket.create_connection(("127.0.0.1", client.port),
                                      timeout=10) as sock:
            sock.sendall(
                b"POST /synthesize HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
                % len(body)
            )
            interim = b""
            while b"\r\n\r\n" not in interim:
                chunk = sock.recv(1)
                assert chunk, interim
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            status, headers, payload = _read_one(sock.makefile("rb"))
        assert status == 200, payload
        assert payload["status"] == "ok" and payload["id"] == "x" * 1500
        assert "connection" not in headers

    def test_no_interim_response_for_an_oversized_body(self, http_setup):
        from repro.server.http import MAX_BODY_BYTES

        _, client = http_setup
        raw = _exchange(client.port, (
            b"POST /synthesize HTTP/1.1\r\nHost: localhost\r\n"
            b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1)
        ))
        answers = _responses(raw)
        assert [status for status, _, _ in answers] == [400], answers

    @pytest.mark.parametrize("version, extra", [
        (b"HTTP/1.0", b""),
        (b"HTTP/1.1", b"Connection: close\r\n"),
        (b"HTTP/1.1", b"Connection: Close\r\n"),
    ], ids=["http10", "connection-close", "connection-Close"])
    def test_closes_after_the_answer(self, http_setup, version, extra):
        _, client = http_setup
        # A second request on the same write must never be answered.
        raw = _exchange(client.port, _healthz(extra, version) + _healthz())
        answers = _responses(raw)
        assert len(answers) == 1, answers
        status, headers, payload = answers[0]
        assert status == 200 and payload["status"] == "ok"
        assert headers["connection"] == "close"

    def test_http11_keeps_the_connection_open(self, http_setup):
        _, client = http_setup
        with socket.create_connection(("127.0.0.1", client.port),
                                      timeout=10) as sock:
            sock.sendall(_healthz() + _healthz())
            reader = sock.makefile("rb")
            first, second = _read_one(reader), _read_one(reader)
        assert first[0] == second[0] == 200
        assert "connection" not in first[1]

    def test_first_of_repeated_headers_wins(self, http_setup):
        _, client = http_setup
        # keep-alive first: the connection stays open for the second GET.
        with socket.create_connection(("127.0.0.1", client.port),
                                      timeout=10) as sock:
            sock.sendall(
                _healthz(b"Connection: keep-alive\r\nConnection: close\r\n")
                + _healthz()
            )
            reader = sock.makefile("rb")
            assert _read_one(reader)[0] == 200
            assert _read_one(reader)[0] == 200
        # close first: one answer, then the server closes.
        raw = _exchange(client.port, _healthz(
            b"Connection: close\r\nConnection: keep-alive\r\n"
        ) + _healthz())
        assert len(_responses(raw)) == 1

    def test_response_leaves_in_one_write(self, http_setup, monkeypatch):
        """Status line, headers and body leave in one ``sendall``: a
        header/body split is what let Nagle's algorithm stall answers."""
        _, client = http_setup
        writes = []
        setup = _Handler.setup

        class Spy:
            def __init__(self, sock):
                self._sock = sock

            def __getattr__(self, name):
                return getattr(self._sock, name)

            def sendall(self, data):
                writes.append(bytes(data))
                return self._sock.sendall(data)

        def spying_setup(handler):
            setup(handler)
            handler.connection = Spy(handler.connection)

        monkeypatch.setattr(_Handler, "setup", spying_setup)
        with socket.create_connection(("127.0.0.1", client.port),
                                      timeout=10) as sock:
            reader = sock.makefile("rb")
            for request in (_healthz(), b"POST /synthesize HTTP/1.1\r\n"
                            b"Content-Length: %d\r\n\r\n%s"
                            % (len(_SYNTH_BODY), _SYNTH_BODY)):
                sock.sendall(request)
                assert _read_one(reader)[0] == 200
        assert len(writes) == 2
        for write in writes:
            (status, headers, payload), = _responses(write)
            assert status == 200 and payload["status"] == "ok"
            assert list(headers) == [
                "server", "date", "content-type", "content-length"
            ]


@contextlib.contextmanager
def _canned_server(*answers):
    """A listener that takes one connection per canned answer: it reads
    the request head, writes the answer's bytes and closes.  Yields the
    port."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        for answer in answers:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    head += chunk
                conn.sendall(answer)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.close()
        thread.join(10)


class TestHttpClientTransport:
    def test_connection_close_answer_drops_the_connection(self):
        body = b'{"status": "ok"}'
        answer = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                  b"Connection: close\r\n\r\n%s" % (len(body), body))
        with _canned_server(answer, answer) as port:
            with HttpClient(port=port) as client:
                assert client.request("GET", "/healthz") == (
                    200, {"status": "ok"}
                )
                assert client._local.conn is None
                assert client._connections == []
                # The next request opens a fresh connection.
                assert client.request("GET", "/healthz")[0] == 200

    def test_truncated_body_raises_incomplete_read(self):
        answer = (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
                  b'{"status": ')
        with _canned_server(answer) as port:
            with HttpClient(port=port) as client:
                with pytest.raises(http.client.IncompleteRead):
                    client.request("GET", "/healthz")
                assert client._connections == []

    def test_truncated_head_raises_incomplete_read(self):
        with _canned_server(b"HTTP/1.1 200 OK\r\nContent-Le") as port:
            with HttpClient(port=port) as client:
                with pytest.raises(http.client.IncompleteRead):
                    client.request("GET", "/healthz")

    def test_no_answer_raises_remote_disconnected(self):
        with _canned_server(b"") as port:
            with HttpClient(port=port) as client:
                with pytest.raises(http.client.RemoteDisconnected):
                    client.request("GET", "/healthz")

    def test_garbage_status_line_raises_bad_status_line(self):
        with _canned_server(b"SSH-2.0-OpenSSH\r\n\r\n") as port:
            with HttpClient(port=port) as client:
                with pytest.raises(http.client.BadStatusLine):
                    client.request("GET", "/healthz")

    def test_request_leaves_in_one_send(self, http_setup, monkeypatch):
        _, shared = http_setup
        sent = []
        with HttpClient(port=shared.port) as client:
            assert client.request("GET", "/healthz")[0] == 200
            sock = client._local.conn.sock
            real_sendall = sock.sendall

            class Spy:
                def __getattr__(self, name):
                    return getattr(sock, name)

                def sendall(self, data):
                    sent.append(bytes(data))
                    return real_sendall(data)

            client._local.conn.sock = Spy()
            assert client.synthesize(QUERY)["status"] == "ok"
        assert len(sent) == 1
        head, _, body = sent[0].partition(b"\r\n\r\n")
        assert head.startswith(b"POST /synthesize HTTP/1.1\r\n")
        assert json.loads(body) == {"query": QUERY}


class TestRunHttp:
    def test_startup_heap_is_frozen_before_serving(self, monkeypatch):
        import gc

        from repro.server import run_http

        freezes = []
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        ready = threading.Event()
        servers = []

        def on_ready(server):
            servers.append(server)
            ready.set()

        thread = threading.Thread(
            target=run_http,
            args=(service,),
            kwargs=dict(port=0, install_signal_handlers=False,
                        on_ready=on_ready, grace_seconds=10),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        with HttpClient(port=servers[0].port) as client:
            assert client.request("GET", "/healthz")[0] == 200
        assert freezes == [1]
        servers[0].shutdown()
        thread.join(10)
        assert not thread.is_alive()


def bind_free_port_then_close():
    """A port that was just free — connecting to it fails fast."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


# ---------------------------------------------------------------------------
# Full-process lifecycle: `repro serve --http` under SIGTERM
# ---------------------------------------------------------------------------


REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _wait_for_port_file(proc, path, timeout=60):
    """Poll the ``--port-file`` the server writes atomically at startup.
    (Scraping the port out of stderr was flaky: the listening line races
    with other startup output and blocks when the pipe buffer fills.)"""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            text = path.read_text()
        except OSError:
            text = ""
        if text.strip():
            return int(text)
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited with code {proc.returncode} before "
                f"writing its port file: {proc.stderr.read()}"
            )
        time.sleep(0.02)
    proc.kill()
    raise AssertionError("server never wrote its port file")


def _spawn_http_server(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    port_path = tmp_path / "serve.port"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0",
         "--port-file", str(port_path),
         "--domains", "textediting", *extra],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    port = _wait_for_port_file(proc, port_path)
    return proc, HttpClient(port=port)


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, client = _spawn_http_server(tmp_path)
        try:
            payload = client.synthesize(QUERY)
            direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
            assert payload["codelet"] == direct.codelet
            assert client.health()["status"] == "ok"
        finally:
            client.close()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        with proc.stderr:
            stderr = proc.stderr.read()
        assert code == 0, stderr
        assert "drained and exited" in stderr

    def test_sighup_hot_reloads_snapshots(self, tmp_path):
        """SIGHUP against a real `repro serve` process reloads snapshots
        without interrupting service."""
        domain = load_domain("textediting", fresh=True)
        Synthesizer(domain).synthesize(QUERY)
        domain.save_cache(tmp_path)
        proc, client = _spawn_http_server(
            tmp_path,
            "--cache-dir", str(tmp_path),
            "--queue-depth", "4", "--domain-budget", "textediting=2",
        )
        try:
            assert client.stats()["reloads"] == 0
            proc.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.stats()["reloads"] >= 1:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("SIGHUP reload never registered")
            health = client.health()
            assert health["status"] == "ok"
            assert health["domains"]["textediting"]["snapshot_loaded"]
            payload = client.synthesize(QUERY)
            assert payload["status"] == "ok"
            assert payload["queue_wait_ms"] == 0.0
        finally:
            client.close()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        with proc.stderr:
            stderr = proc.stderr.read()
        assert code == 0, stderr
