"""Hot-reloading a *different grammar version* of a pack-backed domain.

The acceptance scenario for domain packs: edit a pack on disk while the
server is up, trigger the reload (``POST /admin/reload`` in-process and
over HTTP, and SIGHUP against a real ``repro serve`` process), and the
new grammar serves — with a changed grammar hash (hence a new snapshot
key), with zero queued or in-flight requests dropped, and with
byte-identical results for the domains that did not change.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.client import HttpClient
from repro.domains import is_registered, load_domain, unregister
from repro.packs import register_pack, scaffold_pack
from repro.server import ServerConfig, SynthesisService
from repro.server.http import start_http_server
from repro.synthesis.pipeline import Synthesizer

TE_QUERY = "delete every word that contains numbers"


def _edit_pack_add_dismiss(root) -> None:
    """Grow the scaffolded toy grammar: a new DISMISS command — a real
    grammar change, so the grammar hash (and snapshot key) must move."""
    grammar = root / "grammar.bnf"
    grammar.write_text(
        grammar.read_text().replace(
            "command   ::= show_cmd | clear_cmd",
            "command   ::= show_cmd | clear_cmd | dismiss_cmd",
        )
        + "dismiss_cmd ::= DISMISS clear_what\n"
    )
    apis = root / "apis.toml"
    apis.write_text(
        apis.read_text()
        + '\n[[api]]\nname = "DISMISS"\n'
        'description = "Dismiss notifications."\ntokens = ["dismiss"]\n'
    )


@pytest.fixture()
def hot_pack(tmp_path):
    """A scaffolded pack registered for the test and cleaned up after."""
    root = scaffold_pack(tmp_path, "hotdemo")
    register_pack(root)
    yield root
    if is_registered("hotdemo"):
        unregister("hotdemo")


class TestPackReloadInProcess:
    def test_edited_pack_swaps_in_new_grammar(self, hot_pack):
        service = SynthesisService(ServerConfig(
            domains=("hotdemo", "textediting"),
        ))
        try:
            status, before = service.handle_payload(
                {"query": "show all messages", "domain": "hotdemo"}
            )
            assert status == 200 and before["codelet"] == "SHOW(MESSAGES())"
            te_before = service.handle_payload({"query": TE_QUERY})[1]
            old = service.domain_info()["hotdemo"]
            old_key = service.health()["domains"]["hotdemo"]["snapshot_file"]

            _edit_pack_add_dismiss(hot_pack)
            result = service.reload_snapshots()
            entry = result["domains"]["hotdemo"]
            assert entry["pack_reloaded"] is True
            assert entry["grammar_hash"] != old["grammar_hash"]
            # The snapshot key embeds the grammar hash: a new grammar
            # version looks for (and later writes) a different file.
            new_key = service.health()["domains"]["hotdemo"]["snapshot_file"]
            assert new_key != old_key
            # Unchanged domains report no pack activity...
            assert "pack_reloaded" not in result["domains"]["textediting"]

            # ...and serve byte-identical results.
            te_after = service.handle_payload({"query": TE_QUERY})[1]
            assert te_after["codelet"] == te_before["codelet"]

            # The new grammar version serves immediately.
            status, payload = service.handle_payload(
                {"query": "dismiss every alert", "domain": "hotdemo"}
            )
            assert status == 200
            assert payload["codelet"] == "DISMISS(ALERTS())"
            # Provenance follows: the content hash moved with the edit.
            new = service.domain_info()["hotdemo"]
            assert new["pack"]["content_hash"] != old["pack"]["content_hash"]
        finally:
            service.begin_shutdown()
            assert service.drain(grace_seconds=10) is True
            service.close()

    @pytest.mark.parametrize("file, addition, error", [
        ("grammar.bnf", "broken ::=\n", "grammar.bnf"),
        # Limits that held a 1 s request for over 30 s of path search.
        (
            "pack.toml",
            "\n[limits]\nmax_path_len = 40\nmax_paths = 1000000\n"
            "max_visits = 100000000\nmax_paths_per_edge = 10000\n"
            "max_extra_len = 16\n",
            "unknown manifest table [limits]",
        ),
    ], ids=["grammar", "limits"])
    def test_invalid_edit_keeps_previous_build_serving(
        self, hot_pack, file, addition, error
    ):
        with SynthesisService(ServerConfig(domains=("hotdemo",))) as service:
            status, before = service.handle_payload(
                {"query": "show all messages", "domain": "hotdemo"}
            )
            assert status == 200
            edited = hot_pack / file
            edited.write_text(edited.read_text() + addition)
            result = service.reload_snapshots()
            entry = result["domains"]["hotdemo"]
            assert entry["pack_reloaded"] is False
            assert error in entry["pack_error"]
            status, after = service.handle_payload(
                {"query": "show all messages", "domain": "hotdemo"}
            )
            assert status == 200 and after["codelet"] == before["codelet"]

    def test_reload_mid_traffic_drops_nothing(self, hot_pack):
        """Queued + in-flight requests all complete across a reload that
        swaps the pack's Domain out from under them."""
        service = SynthesisService(ServerConfig(
            domains=("hotdemo", "textediting"),
            max_inflight=2, queue_depth=32,
        ))
        te_direct = Synthesizer(load_domain("textediting")).synthesize(
            TE_QUERY
        ).codelet
        results = []
        lock = threading.Lock()

        def worker(query, domain):
            for _ in range(5):
                out = service.handle_payload(
                    {"query": query, "domain": domain, "timeout": 30}
                )
                with lock:
                    results.append((domain, out))

        threads = [
            threading.Thread(target=worker, args=args)
            for args in (
                ("show all messages", "hotdemo"),
                (TE_QUERY, "textediting"),
            ) * 2
        ]
        try:
            for t in threads:
                t.start()
            _edit_pack_add_dismiss(hot_pack)
            assert service.reload_snapshots()["status"] == "ok"
            for t in threads:
                t.join(120)
            assert len(results) == 20
            for domain, (status, payload) in results:
                assert status == 200, payload
                if domain == "hotdemo":
                    # valid under both grammar versions; always this codelet
                    assert payload["codelet"] == "SHOW(MESSAGES())"
                else:
                    assert payload["codelet"] == te_direct
        finally:
            service.begin_shutdown()
            assert service.drain(grace_seconds=10) is True
            service.close()

    def test_http_admin_reload_and_domain_details(self, hot_pack):
        service = SynthesisService(ServerConfig(domains=("hotdemo",)))
        server = start_http_server(service, port=0)
        client = HttpClient(port=server.port)
        try:
            details = client.domain_details()["hotdemo"]
            assert details["pack"]["name"] == "hotdemo"
            assert details["pack"]["version"] == "0.1.0"
            _edit_pack_add_dismiss(hot_pack)
            result = client.reload()
            assert result["domains"]["hotdemo"]["pack_reloaded"] is True
            after = client.domain_details()["hotdemo"]
            assert after["grammar_hash"] != details["grammar_hash"]
            payload = client.synthesize(
                "dismiss every alert", domain="hotdemo"
            )
            assert payload["codelet"] == "DISMISS(ALERTS())"
        finally:
            server.shutdown()
            service.begin_shutdown()
            assert service.drain(grace_seconds=10) is True
            service.close()


# ---------------------------------------------------------------------------
# Full process: `repro serve --pack-dir` + SIGHUP
# ---------------------------------------------------------------------------


REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _spawn_pack_server(pack_root, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_PACK_PATH", None)  # only --pack-dir feeds the server
    port_path = tmp_path / "serve.port"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0",
         "--port-file", str(port_path),
         "--pack-dir", str(pack_root), "--domains", "hotdemo"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    # The atomically written port file replaces the old stderr scrape,
    # which raced with other startup output.
    deadline = time.monotonic() + 60
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
                f"server exited with code {proc.returncode} before "
                f"writing its port file: {proc.stderr.read()}"
            )
        time.sleep(0.02)
    if port is None:
        proc.kill()
        raise AssertionError("server never wrote its port file")
    return proc, HttpClient(port=port)


class TestPackReloadSighup:
    def test_sighup_serves_edited_pack(self, tmp_path):
        root = scaffold_pack(tmp_path, "hotdemo")
        proc, client = _spawn_pack_server(root, tmp_path)
        try:
            payload = client.synthesize("show all messages")
            assert payload["codelet"] == "SHOW(MESSAGES())"
            before = client.domain_details()["hotdemo"]["grammar_hash"]

            _edit_pack_add_dismiss(root)
            proc.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.stats()["reloads"] >= 1:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("SIGHUP reload never registered")

            after = client.domain_details()["hotdemo"]["grammar_hash"]
            assert after != before
            payload = client.synthesize("dismiss every alert")
            assert payload["codelet"] == "DISMISS(ALERTS())"
            assert client.health()["status"] == "ok"
        finally:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        assert code == 0, proc.stderr.read()
