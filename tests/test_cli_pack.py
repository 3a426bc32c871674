"""CLI coverage for the pack subsystem: ``repro pack`` (validate / list /
info / init), ``repro domains``, and the ``--pack-dir`` flag end to end."""

import json

import pytest

from repro.cli import main
from repro.domains import is_registered, unregister
from repro.packs import PACK_PATH_ENV, builtin_pack_root, scaffold_pack


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.setenv(PACK_PATH_ENV, "")


def _unregister_quietly(name):
    if is_registered(name):
        unregister(name)


class TestPackValidate:
    def test_builtin_packs_validate(self, capsys):
        code = main(["pack", "validate", str(builtin_pack_root())])
        out = capsys.readouterr().out
        assert code == 0
        assert "spreadsheet v1.0.0" in out
        assert "stringxform v1.0.0" in out

    def test_invalid_pack_prints_line_numbered_issues(self, tmp_path, capsys):
        root = scaffold_pack(tmp_path, "demo")
        grammar = root / "grammar.bnf"
        lines = grammar.read_text().splitlines()
        grammar.write_text("\n".join(lines + ["broken ::="]) + "\n")
        code = main(["pack", "validate", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out
        assert f"grammar.bnf:{len(lines) + 1}:" in out

    def test_missing_directory_fails(self, tmp_path, capsys):
        code = main(["pack", "validate", str(tmp_path / "nope")])
        assert code == 1
        assert "no pack.toml" in capsys.readouterr().err


class TestPackListInfo:
    def test_list_shows_shipped_packs(self, capsys):
        code = main(["pack", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spreadsheet v1.0.0" in out
        assert "stringxform v1.0.0" in out

    def test_info_by_registered_name(self, capsys):
        code = main(["pack", "info", "spreadsheet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "content hash:" in out and "grammar hash:" in out
        assert "SUM" in out and "examples:     55" in out

    def test_info_by_directory(self, tmp_path, capsys):
        root = scaffold_pack(tmp_path, "demo")
        code = main(["pack", "info", str(root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "demo v0.1.0" in out

    def test_info_unknown_target(self, capsys):
        code = main(["pack", "info", "nope"])
        assert code == 2
        assert "neither a pack directory" in capsys.readouterr().err


class TestPackInit:
    def test_init_writes_valid_pack(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["pack", "init", "mypack"])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "mypack" / "pack.toml").is_file()
        assert "next steps" in out

    def test_init_refuses_overwrite(self, tmp_path, capsys):
        main(["pack", "init", "mypack", "--dest", str(tmp_path)])
        capsys.readouterr()
        code = main(["pack", "init", "mypack", "--dest", str(tmp_path)])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    def test_init_rejects_bad_name(self, tmp_path, capsys):
        code = main(["pack", "init", "Bad-Name", "--dest", str(tmp_path)])
        assert code == 2


class TestDomainsListing:
    def test_domains_lists_provenance(self, capsys):
        code = main(["domains"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("astmatcher", "spreadsheet", "stringxform",
                     "textediting"):
            assert name in out
        assert "pack spreadsheet v1.0.0" in out
        assert "grammar " in out

    def test_domains_json(self, capsys):
        code = main(["domains", "--json"])
        assert code == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["stringxform"]["pack"]["name"] == "stringxform"
        assert "pack" not in listing["textediting"]
        assert len(listing["textediting"]["grammar_hash"]) == 64

    def test_list_domains_flag_refused(self, capsys):
        # `repro domains` is the one listing; the old flag is unknown.
        with pytest.raises(SystemExit) as info:
            main(["--list-domains"])
        assert info.value.code == 2
        assert "--list-domains" in capsys.readouterr().err


class TestPackDirFlag:
    def test_one_shot_synthesis_from_pack_dir(
        self, tmp_path, capsys, clean_env
    ):
        root = scaffold_pack(tmp_path, "demo_cli")
        try:
            code = main([
                "--pack-dir", str(root), "--domain", "demo_cli",
                "show all messages",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert out.strip() == "SHOW(MESSAGES())"
        finally:
            _unregister_quietly("demo_cli")

    def test_unreadable_pack_dir_fails_fast(self, tmp_path, capsys,
                                            clean_env):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "pack.toml").write_text("not [valid toml\n")
        code = main(["--pack-dir", str(bad), "q"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
