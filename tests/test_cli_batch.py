"""CLI batch mode: ``python -m repro batch [FILE]``."""

import io
import json

import pytest

from repro.cli import main


def _write_queries(tmp_path, lines):
    path = tmp_path / "queries.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestBatchCommand:
    def test_file_input(self, tmp_path, capsys):
        path = _write_queries(
            tmp_path,
            [
                "# a comment line",
                "print every line",
                "",
                "delete every word that contains numbers",
            ],
        )
        code = main(["batch", path])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2  # comment + blank skipped
        assert lines[0].startswith("1. PRINT(")
        assert lines[1].startswith("2. ")
        assert "2/2 ok" in captured.err
        assert "queries/s" in captured.err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("print every line\n")
        )
        code = main(["batch"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("1. PRINT(")

    def test_json_output(self, tmp_path, capsys):
        path = _write_queries(tmp_path, ["print every line"])
        code = main(["batch", path, "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert len(payload) == 1
        item = payload[0]
        assert item["status"] == "ok"
        assert item["query"] == "print every line"
        assert item["codelet"].startswith("PRINT(")
        assert item["error"] is None
        # The schema is shared with the serving front ends
        # (BatchItem.to_json; see docs/serving.md).
        assert set(item) == {
            "index", "query", "status", "codelet", "size", "engine",
            "elapsed_seconds", "error",
        }

    def test_json_trace_flag(self, tmp_path, capsys):
        path = _write_queries(
            tmp_path, ["print every line", "zzz qqq xxx"]
        )
        code = main(["batch", path, "--json", "--trace"])
        captured = capsys.readouterr()
        assert code == 1
        ok_item, bad_item = json.loads(captured.out)
        stages = [s["stage"] for s in ok_item["trace"]["spans"]]
        if not ok_item["trace"]["cache_hit"]:
            assert stages == [
                "parse", "prune", "word_to_api", "edge_to_path", "merge",
                "codegen",
            ]
        assert bad_item["trace"]["spans"][-1]["status"] == "error"
        # The legacy key set only grows by the opt-in trace.
        assert set(ok_item) == {
            "index", "query", "status", "codelet", "size", "engine",
            "elapsed_seconds", "error", "trace",
        }

    def test_text_trace_flag(self, tmp_path, capsys):
        path = _write_queries(tmp_path, ["print every line"])
        code = main(["batch", path, "--trace"])
        captured = capsys.readouterr()
        assert code == 0
        assert "#   trace 1: " in captured.err
        assert "codegen=" in captured.err or "cache hit" in captured.err

    def test_failing_query_sets_exit_code(self, tmp_path, capsys):
        path = _write_queries(
            tmp_path, ["print every line", "zzz qqq xxx"]
        )
        code = main(["batch", path, "--json"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert [i["status"] for i in payload] == ["ok", "error"]
        assert payload[1]["codelet"] is None
        assert payload[1]["error"]["code"] == "synthesis_failed"
        assert payload[1]["error"]["message"]

    def test_stats_flag_prints_cache_counters(self, tmp_path, capsys):
        path = _write_queries(
            tmp_path, ["print every line", "print every line"]
        )
        code = main(["batch", path, "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# path_cache_hits = " in captured.err
        assert "# outcome_cache_hits = " in captured.err

    @staticmethod
    def _stats_lines(err):
        return {
            line.split(" = ")[0].lstrip("# "): int(line.split(" = ")[1])
            for line in err.splitlines()
            if line.startswith("# ") and " = " in line
        }

    # The middle query fails after its path search, so it makes outcome,
    # path and conflict lookups of its own.
    FAILING_BATCH = [
        "print every line",
        "insert line before word after line",
        "delete every word that contains numbers",
    ]

    def test_stats_count_failed_queries(self, tmp_path, capsys):
        from repro import load_domain
        from repro.domains import clear_cached_domains
        from repro.synthesis.result import SynthesisStats

        clear_cached_domains()
        cache = load_domain("textediting").path_cache
        path = _write_queries(tmp_path, self.FAILING_BATCH)
        before = cache.snapshot()
        code = main(["batch", path, "--stats"])
        after = cache.snapshot()
        assert code == 1
        stats = self._stats_lines(capsys.readouterr().err)
        for name in SynthesisStats.CACHE_FIELDS:
            assert stats[name] == after[name] - before[name], name
        assert stats["outcome_cache_misses"] == 3

    def test_workers_stats_count_failed_queries(self, tmp_path, capsys):
        path = _write_queries(tmp_path, self.FAILING_BATCH)
        code = main(["batch", path, "--workers", "2", "--stats"])
        assert code == 1
        stats = self._stats_lines(capsys.readouterr().err)
        # One outcome-cache lookup per query, whichever worker ran it.
        assert stats["outcome_cache_hits"] + stats["outcome_cache_misses"] == 3

    def test_workers_flag(self, tmp_path, capsys):
        path = _write_queries(
            tmp_path,
            ["print every line", "delete every word that contains numbers"],
        )
        code = main(["batch", path, "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "workers=2" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_input(self, tmp_path, capsys):
        path = _write_queries(tmp_path, ["# only a comment"])
        code = main(["batch", path])
        assert code == 2
        assert "no queries" in capsys.readouterr().err

    def test_unknown_domain(self, tmp_path, capsys):
        path = _write_queries(tmp_path, ["print every line"])
        code = main(["batch", path, "--domain", "nope"])
        assert code == 2
        assert "unknown domain" in capsys.readouterr().err

    def test_process_backend(self, tmp_path, capsys):
        path = _write_queries(
            tmp_path,
            ["print every line", "delete every word that contains numbers"],
        )
        code = main(["batch", path, "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("1. PRINT(")
        assert "workers=2)" in captured.err
        assert "2/2 ok" in captured.err

    def test_process_backend_stats_aggregate(self, tmp_path, capsys):
        path = _write_queries(
            tmp_path, ["print every line", "print every line"]
        )
        code = main(["batch", path, "--workers", "2", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# path_cache_misses = " in captured.err

    def test_no_backend_flag(self, tmp_path, capsys):
        # Batches fan out over processes with --workers only.
        path = _write_queries(tmp_path, ["print every line"])
        with pytest.raises(SystemExit) as info:
            main(["batch", path, "--backend", "process"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro batch")
        assert "unrecognized arguments: --backend process" in err


class TestCacheCommand:
    def test_warm_info_clear_cycle(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        queries = _write_queries(
            tmp_path, ["print every line", "delete every word that contains numbers"]
        )

        code = main(
            ["cache", "warm", "--domain", "textediting",
             "--cache-dir", cache_dir, "--queries", queries]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warmed textediting with 2/2 queries" in captured.out
        assert "snapshot:" in captured.out

        code = main(["cache", "info", "--cache-dir", cache_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert "domain=textediting" in captured.out
        assert "[fresh]" in captured.out

        code = main(["cache", "clear", "--cache-dir", cache_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert "removed" in captured.out

        code = main(["cache", "info", "--cache-dir", cache_dir])
        assert code == 0
        assert "no snapshots found" in capsys.readouterr().out

    def test_warm_from_multiple_corpus_files(self, tmp_path, capsys):
        # Snapshot warming at scale: --queries is repeatable; files are
        # concatenated and duplicates collapsed.
        cache_dir = str(tmp_path / "cache")
        first = tmp_path / "corpus_a.txt"
        first.write_text("print every line\n# comment\nprint every line\n")
        second = tmp_path / "corpus_b.txt"
        second.write_text(
            "print every line\ndelete every word that contains numbers\n"
        )
        code = main(
            ["cache", "warm", "--domain", "textediting",
             "--cache-dir", cache_dir,
             "--queries", str(first), "--queries", str(second)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warmed textediting with 2/2 queries" in captured.out

    def test_warm_with_limit_uses_bundled_queries(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(
            ["cache", "warm", "--domain", "textediting",
             "--cache-dir", cache_dir, "--limit", "3"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "3/3 queries" in captured.out

    @staticmethod
    def _batch_stats_after_warm(tmp_path, capsys, workers):
        cache_dir = str(tmp_path / "cache")
        queries = _write_queries(tmp_path, ["print every line"])
        assert main(
            ["cache", "warm", "--domain", "textediting",
             "--cache-dir", cache_dir, "--queries", queries]
        ) == 0
        capsys.readouterr()
        # Real invocations are separate processes; drop the in-process
        # shared domain so the batch (or its forked workers) starts cold
        # and hits the snapshot.
        from repro.domains import clear_cached_domains

        clear_cached_domains()

        code = main(
            ["batch", queries, "--workers", workers,
             "--cache-dir", cache_dir, "--stats"]
        )
        captured = capsys.readouterr()
        assert code == 0
        return {
            line.split(" = ")[0].lstrip("# "): int(line.split(" = ")[1])
            for line in captured.err.splitlines()
            if line.startswith("# ") and " = " in line
        }

    def test_batch_uses_warmed_cache_dir(self, tmp_path, capsys):
        stats = self._batch_stats_after_warm(tmp_path, capsys, "1")
        assert stats["path_cache_hits"] > 0
        assert stats["path_cache_misses"] == 0

    def test_batch_workers_preload_warmed_cache_dir(self, tmp_path, capsys):
        stats = self._batch_stats_after_warm(tmp_path, capsys, "2")
        assert stats["path_cache_hits"] > 0
        assert stats["path_cache_misses"] == 0

    def test_clear_empty_dir(self, tmp_path, capsys):
        code = main(["cache", "clear", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "no snapshots to remove" in capsys.readouterr().out

    def test_unknown_domain(self, tmp_path, capsys):
        code = main(
            ["cache", "warm", "--domain", "nope",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown domain" in capsys.readouterr().err
