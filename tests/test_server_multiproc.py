"""Pre-fork multi-worker serving (``repro serve --workers N``).

Two layers:

* unit tests for the building blocks — atomic port files, the shared
  listener, the per-worker stats seats, and the cross-worker ``/stats``
  merge;
* one real 2-worker cluster (a ``repro serve --http 0 --workers 2``
  subprocess) shared by the process-level tests: distinct worker
  identities, server-wide stats aggregation, keep-alive round-trip
  latency, ``/admin/reload`` and SIGHUP fan-out, crash restart, and the
  graceful SIGTERM drain.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import Synthesizer, load_domain
from repro.client import HttpClient
from repro.errors import ReproError
from repro.server import ServerConfig, SynthesisService
from repro.server.http import SynthesisHTTPServer
from repro.server.multiproc import (
    WorkerStatsBoard,
    bind_listener,
    merge_worker_stats,
    run_supervisor,
    write_port_file,
)
from tests.test_server import _median_ms

QUERY = "print every line"

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# Port file
# ---------------------------------------------------------------------------


class TestPortFile:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "serve.port"
        write_port_file(str(path), 8123)
        assert path.read_text() == "8123\n"

    def test_replaces_previous_content_atomically(self, tmp_path):
        path = tmp_path / "serve.port"
        write_port_file(str(path), 1111)
        write_port_file(str(path), 2222)
        assert int(path.read_text()) == 2222
        # No temp droppings left next to the port file.
        leftovers = [
            name for name in os.listdir(tmp_path) if name != "serve.port"
        ]
        assert leftovers == []


class TestRunSupervisorValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ReproError, match="workers must be >= 1"):
            run_supervisor(object(), workers=0)

    def test_requires_fork_before_binding(self, monkeypatch):
        from repro.server import multiproc

        bound = []
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(
            multiproc, "bind_listener", lambda *args: bound.append(args)
        )
        with pytest.raises(ReproError, match="no os.fork"):
            run_supervisor(object(), workers=2)
        assert bound == []

    def test_bind_listener_rejects_taken_port(self):
        sock = bind_listener("127.0.0.1", 0)
        try:
            port = sock.getsockname()[1]
            with pytest.raises(OSError):
                bind_listener("127.0.0.1", port)
        finally:
            sock.close()


class TestSharedListener:
    def test_losing_an_accept_race_does_not_block_the_serve_loop(self):
        """Every worker on the shared listener is woken per connection
        and only one wins it; each loser then calls accept() with nothing
        pending.  That call must return, or the loser's serve loop (and
        so its SIGTERM drain) waits for some later connection."""
        service = SynthesisService(ServerConfig(domains=("textediting",)))
        listener = bind_listener("127.0.0.1", 0)
        port = listener.getsockname()[1]
        server = SynthesisHTTPServer(
            ("127.0.0.1", port), service, sock=listener
        )
        # The step serve_forever() takes after select() reports the
        # listener readable.
        step = threading.Thread(
            target=server._handle_request_noblock, daemon=True
        )
        try:
            step.start()
            step.join(timeout=5.0)
            assert not step.is_alive(), "accept() blocked"
        finally:
            if step.is_alive():  # release the blocked accept()
                socket.create_connection(("127.0.0.1", port)).close()
                step.join(timeout=5.0)
            listener.close()
            service.close()


# ---------------------------------------------------------------------------
# Stats seats and the /stats merge
# ---------------------------------------------------------------------------


def _worker_stats(ok=0, reloads=0, inflight=0, uptime=1.0):
    return {
        "uptime_seconds": uptime,
        "requests": {"total": ok, "ok": ok, "error": 0},
        "scheduler": {
            "inflight": inflight,
            "queue_depth": 0,
            "max_inflight": 8,
            "counters": {"admitted": ok, "completed": ok},
            "priorities": {
                "interactive": {"queued": 0, "counters": {"admitted": ok}},
            },
        },
        "stages": {"parse": {"p50_ms": 1.0}},
        "verification": {"runs": 0},
        "reloads": reloads,
        "domains": {
            "textediting": {
                "counters": {"outcome_cache_hits": ok},
                "entries": {"outcome": ok},
                "capacities": {"outcome": 512},
            }
        },
    }


class TestWorkerStatsBoard:
    def test_publish_and_read_all(self, tmp_path):
        a = WorkerStatsBoard(str(tmp_path), 0)
        b = WorkerStatsBoard(str(tmp_path), 1)
        a.publish(_worker_stats(ok=3))
        b.publish(_worker_stats(ok=5))
        entries = a.read_all()
        assert [e["worker_id"] for e in entries] == [0, 1]
        assert all(e["pid"] == os.getpid() for e in entries)

    def test_corrupt_seat_is_skipped(self, tmp_path):
        board = WorkerStatsBoard(str(tmp_path), 0)
        board.publish(_worker_stats(ok=1))
        (tmp_path / "worker-1.json").write_text("{ half a payl")
        entries = board.read_all()
        assert [e["worker_id"] for e in entries] == [0]

    def test_merged_sums_counters_across_seats(self, tmp_path):
        a = WorkerStatsBoard(str(tmp_path), 0)
        b = WorkerStatsBoard(str(tmp_path), 1)
        b.publish(_worker_stats(ok=5, reloads=1, inflight=2, uptime=9.0))
        merged = a.merged(_worker_stats(ok=3, reloads=1, uptime=4.0))
        assert merged["n_workers"] == 2
        assert merged["worker_id"] == 0  # the responder
        assert merged["requests"] == {"total": 8, "ok": 8, "error": 0}
        assert merged["reloads"] == 2
        assert merged["uptime_seconds"] == 9.0  # oldest worker
        assert merged["scheduler"]["counters"]["admitted"] == 8
        assert merged["scheduler"]["inflight"] == 2
        # Config-shaped fields stay per-worker, not 2x'd.
        assert merged["scheduler"]["max_inflight"] == 8
        domain = merged["domains"]["textediting"]
        assert domain["counters"]["outcome_cache_hits"] == 8
        assert domain["entries"]["outcome"] == 8
        assert domain["capacities"] == {"outcome": 512}
        assert set(merged["workers"]) == {"0", "1"}
        assert merged["workers"]["1"]["requests"]["ok"] == 5

    def test_merged_with_no_seats_is_local(self, tmp_path):
        board = WorkerStatsBoard(str(tmp_path / "gone"), 7)
        merged = board.merged(_worker_stats(ok=2))
        assert merged["n_workers"] == 1
        assert merged["requests"]["ok"] == 2
        assert set(merged["workers"]) == {"7"}

    def test_background_publisher_keeps_seat_fresh(self, tmp_path):
        board = WorkerStatsBoard(
            str(tmp_path), 0, publish_interval=0.02
        )
        counter = {"n": 0}

        def supplier():
            counter["n"] += 1
            return _worker_stats(ok=counter["n"])

        board.start(supplier)
        try:
            assert wait_until(
                lambda: board.read_all()
                and board.read_all()[0]["stats"]["requests"]["ok"] >= 3,
                timeout=10.0,
            )
        finally:
            board.stop()
        # stop() publishes one final snapshot.
        final = board.read_all()[0]["stats"]["requests"]["ok"]
        assert final >= 3

    def test_merge_worker_stats_empty_schedulerless_seat(self):
        merged = merge_worker_stats(
            [{"worker_id": 0, "pid": 1, "stats": {}}], 0, {}
        )
        assert merged["n_workers"] == 1
        assert merged["requests"] == {}


# ---------------------------------------------------------------------------
# A real 2-worker cluster
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One ``repro serve --http 0 --workers 2`` process shared by the
    process-level tests (startup builds a domain; no point paying that
    per test).  Yields (proc, client, port_path)."""
    tmp_path = tmp_path_factory.mktemp("multiproc")
    port_path = tmp_path / "serve.port"
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0",
         "--workers", "2", "--port-file", str(port_path),
         "--domains", "textediting", "--queue-depth", "4"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 120
    port = None
    while time.monotonic() < deadline:
        try:
            text = port_path.read_text()
        except OSError:
            text = ""
        if text.strip():
            port = int(text)
            break
        if proc.poll() is not None:
            raise AssertionError(
                f"supervisor exited with code {proc.returncode}: "
                f"{proc.stderr.read()}"
            )
        time.sleep(0.05)
    if port is None:
        proc.kill()
        raise AssertionError("supervisor never wrote its port file")
    client = HttpClient(port=port)
    # Both workers join the stats board at startup; wait for both seats.
    assert wait_until(
        lambda: client.stats().get("n_workers") == 2, timeout=60.0
    ), client.stats()
    yield proc, client, port_path
    client.close()
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=90)


def _merged_stats(client):
    stats = client.stats()
    assert stats.get("n_workers") == 2, stats
    return stats


class TestMultiWorkerCluster:
    def test_distinct_worker_identities(self, cluster):
        _, client, _ = cluster
        stats = _merged_stats(client)
        assert set(stats["workers"]) == {"0", "1"}
        pids = {seat["pid"] for seat in stats["workers"].values()}
        assert len(pids) == 2
        # /healthz names the worker that answered.
        worker = client.health()["worker"]
        assert worker["id"] in (0, 1)
        assert worker["pid"] in pids

    def test_synthesis_matches_direct_and_stats_aggregate(self, cluster):
        _, client, _ = cluster
        direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
        before = _merged_stats(client)["requests"].get("ok", 0)
        n_requests = 6
        for _ in range(n_requests):
            payload = client.synthesize(QUERY, priority="interactive")
            assert payload["codelet"] == direct.codelet
        # Counters are summed across both seats; seats republish every
        # 0.2s, so the total converges rather than appearing instantly.
        assert wait_until(
            lambda: _merged_stats(client)["requests"].get("ok", 0)
            >= before + n_requests,
            timeout=30.0,
        ), _merged_stats(client)

    def test_back_to_back_round_trips_do_not_stall(self, cluster):
        """Workers serve through the same handler as ``serve --http``:
        with TCP_NODELAY, a reused keep-alive connection answers without
        the ~40 ms delayed-ACK stall."""
        _, client, _ = cluster
        assert client.synthesize(QUERY)["status"] == "ok"  # warm
        healthz = _median_ms(lambda: client.request("GET", "/healthz"))
        synthesize = _median_ms(lambda: client.synthesize(QUERY))
        assert healthz < 20.0, healthz
        assert synthesize < 20.0, synthesize

    def test_admin_reload_fans_out_to_all_workers(self, cluster):
        _, client, _ = cluster
        before = _merged_stats(client)["reloads"]
        client.reload()
        # The handling worker reloads synchronously; the sibling learns
        # via supervisor SIGHUP and republishes shortly after.
        assert wait_until(
            lambda: _merged_stats(client)["reloads"] >= before + 2,
            timeout=30.0,
        ), _merged_stats(client)

    def test_sighup_reloads_every_worker(self, cluster):
        proc, client, _ = cluster
        before = _merged_stats(client)["reloads"]
        proc.send_signal(signal.SIGHUP)
        assert wait_until(
            lambda: _merged_stats(client)["reloads"] >= before + 2,
            timeout=30.0,
        ), _merged_stats(client)

    def test_crashed_worker_is_restarted(self, cluster):
        _, client, _ = cluster
        stats = _merged_stats(client)
        victim_id, victim_pid = next(
            (wid, seat["pid"]) for wid, seat in stats["workers"].items()
        )
        os.kill(victim_pid, signal.SIGKILL)

        def replaced():
            seats = client.stats().get("workers", {})
            seat = seats.get(victim_id)
            return (
                seat is not None
                and seat["pid"] != victim_pid
                and client.stats().get("n_workers") == 2
            )

        assert wait_until(replaced, timeout=60.0), client.stats()
        # The cluster still serves correctly after the restart.
        payload = client.synthesize(QUERY)
        assert payload["status"] == "ok"

    def test_zz_sigterm_drains_all_workers_and_exits_zero(self, cluster):
        # Deliberately last in the class: it kills the shared cluster,
        # which the fixture teardown tolerates.
        proc, client, _ = cluster
        payload = client.synthesize(QUERY)
        assert payload["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=90)
        stderr = proc.stderr.read()
        assert code == 0, stderr
        assert "all workers drained and exited" in stderr
