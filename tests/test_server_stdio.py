"""Stdio (JSON-lines) front end and the StdioClient helper."""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import Synthesizer, load_domain
from repro.client import ServerError, StdioClient
from repro.server import ServerConfig, SynthesisService
from repro.server.stdio import serve_stdio

QUERY = "print every line"


def run_lines(lines, **config):
    """Feed JSON lines to an in-process stdio server; returns the decoded
    responses in order (no subprocess, no signals)."""
    service = SynthesisService(
        ServerConfig(domains=("textediting",), **config)
    )
    reader = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    writer = io.StringIO()
    drained = serve_stdio(
        service, reader, writer, install_signal_handlers=False
    )
    assert drained is True
    return [json.loads(out) for out in writer.getvalue().splitlines()]


class TestStdioLoop:
    def test_synthesize_identical_to_direct(self):
        direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
        (response,) = run_lines([{"query": QUERY, "id": 42}])
        assert response["status"] == "ok"
        assert response["codelet"] == direct.codelet
        assert response["id"] == 42

    def test_one_response_per_line_in_order(self):
        responses = run_lines([
            {"query": QUERY, "id": 1},
            {"query": "delete every word that contains numbers", "id": 2},
        ])
        assert [r["id"] for r in responses] == [1, 2]
        assert all(r["status"] == "ok" for r in responses)

    def test_malformed_line_answers_bad_request_and_continues(self):
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        reader = io.StringIO(
            "this is not json\n" + json.dumps({"query": QUERY}) + "\n"
        )
        writer = io.StringIO()
        serve_stdio(service, reader, writer, install_signal_handlers=False)
        bad, good = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert bad["error"]["code"] == "bad_request"
        assert good["status"] == "ok"

    def test_blank_lines_skipped(self):
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        reader = io.StringIO("\n  \n" + json.dumps({"query": QUERY}) + "\n")
        writer = io.StringIO()
        serve_stdio(service, reader, writer, install_signal_handlers=False)
        assert len(writer.getvalue().splitlines()) == 1

    def test_unknown_op_rejected(self):
        (response,) = run_lines([{"op": "reticulate", "id": 3}])
        assert response["error"]["code"] == "bad_request"
        assert response["id"] == 3

    def test_unknown_domain_and_timeout_codes(self):
        bad_domain, timeout = run_lines([
            {"query": QUERY, "domain": "nope"},
            {"query": "delete every word that contains numbers",
             "timeout": 0},
        ])
        assert bad_domain["error"]["code"] == "unknown_domain"
        assert timeout["error"]["code"] == "timeout"
        assert timeout["status"] == "timeout"

    def test_health_stats_shutdown_ops(self):
        health, stats, shutdown = run_lines([
            {"op": "health"},
            {"op": "stats"},
            {"op": "shutdown", "id": "bye"},
        ])
        assert health["health"]["status"] == "ok"
        assert "textediting" in health["health"]["domains"]
        assert stats["stats"]["domains"]["textediting"]["counters"]
        assert shutdown == {"op": "shutdown", "id": "bye", "ok": True}

    def test_shutdown_op_stops_reading(self):
        responses = run_lines([
            {"op": "shutdown"},
            {"query": QUERY},  # never read
        ])
        assert len(responses) == 1

    def test_eof_drains_cleanly(self):
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        drained = serve_stdio(
            service, io.StringIO(""), io.StringIO(),
            install_signal_handlers=False,
        )
        assert drained is True
        assert service.draining

    def test_reload_op(self, tmp_path):
        domain = load_domain("textediting", fresh=True)
        Synthesizer(domain).synthesize(QUERY)
        domain.save_cache(tmp_path)
        reload_resp, bad = run_lines(
            [
                {"op": "reload", "id": 7, "cache_dir": str(tmp_path)},
                {"op": "reload", "cache_dir": 5},
            ],
            cache_dir=str(tmp_path / "does-not-exist"),
        )
        assert reload_resp["op"] == "reload" and reload_resp["id"] == 7
        result = reload_resp["reload"]
        assert result["status"] == "ok" and result["reloads"] == 1
        assert result["domains"]["textediting"]["snapshot_loaded"] is True
        assert bad["error"]["code"] == "bad_request"

    def test_reload_op_rejects_unknown_fields(self, tmp_path):
        # A misspelled "cache_dir" must not reload the default directory,
        # exactly as POST /admin/reload refuses it.
        (typo,) = run_lines(
            [{"op": "reload", "id": 3, "cache_dri": str(tmp_path)}]
        )
        assert typo["status"] == "error" and typo["id"] == 3
        assert typo["error"]["code"] == "bad_request"
        assert "cache_dri" in typo["error"]["message"]


class TestStdioShutdownWithQueue:
    def test_shutdown_agrees_with_http_semantics(self):
        """Graceful shutdown with a non-empty queue behaves identically
        across transports: the stdio in-flight request finishes and
        answers, a queued request (arriving via the shared service) fails
        with shutting_down, and the final drain completes."""
        service = SynthesisService(ServerConfig(
            domains=("textediting",), max_inflight=1, queue_depth=4,
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

        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "r")
        feeder = os.fdopen(write_fd, "w")
        writer = io.StringIO()
        box = {}

        def serve():
            box["drained"] = serve_stdio(
                service, reader, writer, install_signal_handlers=False,
                grace_seconds=30.0,
            )

        server_thread = threading.Thread(target=serve)
        server_thread.start()
        feeder.write(json.dumps({"query": QUERY, "id": 1}) + "\n")
        feeder.flush()
        assert entered.wait(10)

        # A second request on the shared service queues behind the
        # stdio in-flight one (this is how an HTTP listener sharing the
        # service would wait).
        def queued():
            box["queued"] = service.handle_payload(
                {"query": QUERY, "timeout": 30}
            )

        queued_thread = threading.Thread(target=queued)
        queued_thread.start()
        deadline = time.monotonic() + 10
        while service.queued < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.queued == 1

        service.begin_shutdown()
        queued_thread.join(10)
        status, payload = box["queued"]
        assert status == 503
        assert payload["error"]["code"] == "shutting_down"

        # The in-flight stdio request still completes and answers.
        release.set()
        feeder.close()  # EOF ends the loop after the in-flight answer
        server_thread.join(30)
        assert box["drained"] is True
        responses = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert responses[0]["status"] == "ok"
        assert responses[0]["id"] == 1


class TestStdioSubprocess:
    def test_client_round_trip_and_clean_exit(self):
        direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
        client = StdioClient(["--domains", "textediting"])
        try:
            payload = client.synthesize(QUERY, id="a")
            assert payload["codelet"] == direct.codelet
            assert client.health()["status"] == "ok"
            assert client.stats()["requests"]["ok"] == 1
            with pytest.raises(ServerError) as info:
                client.synthesize(QUERY, domain="nope")
            assert info.value.code == "unknown_domain"
        finally:
            code = client.close()
        assert code == 0

    def test_sigterm_while_idle_exits_zero(self):
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--domains", "textediting"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        # First response proves the server is up and blocked on stdin.
        proc.stdin.write(json.dumps({"query": QUERY}) + "\n")
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0, proc.stderr.read()
