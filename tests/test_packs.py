"""Domain packs (repro.packs): format validation with line-numbered
issues, loader/registry semantics, refresh-from-disk, and the
``pack init`` scaffold exercised end to end."""

import os

import pytest

from repro.domains import is_registered, load_domain, unregister
from repro.errors import PackError
from repro.packs import (
    MANIFEST_NAME,
    PACK_PATH_ENV,
    PackFactory,
    add_pack_path,
    builtin_pack_root,
    discover_packs,
    is_pack_dir,
    load_pack,
    pack_factories,
    pack_name,
    register_pack,
    scaffold_pack,
    validate_pack,
)
from repro.synthesis.pipeline import Synthesizer


@pytest.fixture()
def clean_env(monkeypatch):
    """Isolate REPRO_PACK_PATH mutations (add_pack_path appends to it)."""
    monkeypatch.setenv(PACK_PATH_ENV, "")


def _unregister_quietly(name):
    if is_registered(name):
        unregister(name)


# ---------------------------------------------------------------------------
# Shipped packs
# ---------------------------------------------------------------------------


class TestBuiltinPacks:
    def test_both_shipped_packs_discovered(self):
        roots = discover_packs(builtin_pack_root())
        assert [pack_name(r) for r in roots] == ["spreadsheet", "stringxform"]

    def test_shipped_packs_validate_clean(self):
        for root in discover_packs(builtin_pack_root()):
            spec, issues = validate_pack(root)
            assert issues == [], [str(i) for i in issues]
            assert spec is not None and spec.content_hash

    def test_registered_as_domains(self):
        factories = pack_factories()
        assert {"spreadsheet", "stringxform"} <= set(factories)
        assert all(isinstance(f, PackFactory) for f in factories.values())

    def test_pack_domain_loads_like_any_other(self, spreadsheet):
        assert load_domain("spreadsheet") is spreadsheet
        fresh = load_domain("spreadsheet", fresh=True)
        assert fresh is not spreadsheet
        assert fresh.grammar_hash() == spreadsheet.grammar_hash()


# ---------------------------------------------------------------------------
# Provenance (Domain.stats / Domain.provenance)
# ---------------------------------------------------------------------------


class TestProvenance:
    def test_pack_domain_stats_carry_provenance(self, spreadsheet):
        stats = spreadsheet.stats()
        assert len(stats["grammar_hash"]) == 64
        assert stats["pack_name"] == "spreadsheet"
        assert stats["pack_version"] == "1.0.0"
        assert stats["pack_source"].endswith("spreadsheet")
        assert len(stats["pack_content_hash"]) == 64

    def test_provenance_mapping(self, stringxform):
        assert stringxform.provenance["name"] == "stringxform"
        assert set(stringxform.provenance) == {
            "name", "version", "source", "content_hash",
        }

    def test_handwritten_domain_has_no_pack_keys(self, textediting):
        stats = textediting.stats()
        assert "grammar_hash" in stats
        assert not any(key.startswith("pack_") for key in stats)
        assert textediting.provenance == {}


# ---------------------------------------------------------------------------
# Validation: precise, line-numbered issues
# ---------------------------------------------------------------------------


class TestValidationIssues:
    @pytest.fixture()
    def demo(self, tmp_path):
        return scaffold_pack(tmp_path, "demo")

    def _issues(self, root):
        spec, issues = validate_pack(root)
        return [str(issue) for issue in issues]

    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "not_a_pack"
        empty.mkdir()
        assert not is_pack_dir(empty)
        rendered = self._issues(empty)
        assert rendered and MANIFEST_NAME in rendered[0]

    def test_grammar_syntax_error_carries_line(self, demo):
        grammar = demo / "grammar.bnf"
        lines = grammar.read_text().splitlines()
        grammar.write_text("\n".join(lines + ["broken ::="]) + "\n")
        rendered = self._issues(demo)
        assert any(
            f"grammar.bnf:{len(lines) + 1}:" in issue for issue in rendered
        ), rendered

    def test_unknown_manifest_key_carries_line(self, demo):
        manifest = demo / MANIFEST_NAME
        text = manifest.read_text()
        needle = 'name = "demo"'
        name_index = text.splitlines().index(needle)  # 0-based
        manifest.write_text(text.replace(needle, needle + "\nbogus = 1"))
        rendered = self._issues(demo)
        # "bogus" sits one line below the name, so 1-based it is index + 2
        assert any(
            f"{MANIFEST_NAME}:{name_index + 2}:" in issue and "bogus" in issue
            for issue in rendered
        ), rendered

    def test_duplicate_api_flagged(self, demo):
        apis = demo / "apis.toml"
        text = apis.read_text()
        apis.write_text(
            text + '\n[[api]]\nname = "SHOW"\ndescription = "dup"\n'
        )
        rendered = self._issues(demo)
        assert any("SHOW" in issue and "apis.toml" in issue
                   for issue in rendered), rendered

    def test_api_not_in_grammar_flagged(self, demo):
        apis = demo / "apis.toml"
        apis.write_text(
            apis.read_text()
            + '\n[[api]]\nname = "GHOST"\ndescription = "not a terminal"\n'
        )
        rendered = self._issues(demo)
        assert any("GHOST" in issue for issue in rendered), rendered

    def test_bad_ground_truth_carries_example_line(self, demo):
        examples = demo / "examples.jsonl"
        lines = examples.read_text().splitlines()
        lines[1] = lines[1].replace("CLEAR(ALERTS())", "CLEAR(GHOSTS())")
        examples.write_text("\n".join(lines) + "\n")
        rendered = self._issues(demo)
        assert any("examples.jsonl:2:" in issue for issue in rendered), rendered

    def test_cache_capacity_must_be_positive(self, demo):
        manifest = demo / MANIFEST_NAME
        text = manifest.read_text()
        n_lines = len(text.splitlines())
        # LruCache needs room for one entry: 0 would fail every query.
        manifest.write_text(text + "\n[cache]\npaths = 0\n")
        rendered = self._issues(demo)
        assert rendered == [
            f"{MANIFEST_NAME}:{n_lines + 3}: cache paths must be a "
            "positive integer, got 0"
        ], rendered

    def test_limits_zero_stays_valid(self, demo):
        manifest = demo / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text() + "\n[limits]\nmax_extra_len = 0\n"
        )
        assert self._issues(demo) == []

    def test_load_pack_raises_with_structured_issues(self, demo):
        (demo / "grammar.bnf").write_text("broken ::=\n")
        with pytest.raises(PackError) as info:
            load_pack(demo)
        assert info.value.issues
        assert "grammar.bnf" in str(info.value.issues[0])

    def test_valid_pack_zero_issues(self, demo):
        spec, issues = validate_pack(demo)
        assert issues == []
        assert spec.name == "demo"
        assert len(spec.examples) == 3


# ---------------------------------------------------------------------------
# PackFactory: caching + refresh-from-disk
# ---------------------------------------------------------------------------


class TestPackFactory:
    @pytest.fixture()
    def factory(self, tmp_path):
        return PackFactory(scaffold_pack(tmp_path, "demo"))

    def test_shared_instance_is_cached(self, factory):
        assert factory() is factory()

    def test_fresh_builds_private_instance(self, factory):
        shared = factory()
        assert factory(fresh=True) is not shared
        assert factory() is shared

    def test_cache_clear_drops_shared(self, factory):
        first = factory()
        factory.cache_clear()
        assert factory() is not first

    def test_refresh_unchanged_returns_none(self, factory):
        shared = factory()
        assert factory.refresh() is None
        assert factory() is shared

    def test_refresh_after_edit_swaps_domain(self, factory):
        old = factory()
        grammar = factory.root / "grammar.bnf"
        grammar.write_text(
            grammar.read_text().replace(
                "command   ::= show_cmd | clear_cmd",
                "command   ::= show_cmd | clear_cmd | dismiss_cmd",
            )
            + "dismiss_cmd ::= DISMISS clear_what\n"
        )
        apis = factory.root / "apis.toml"
        apis.write_text(
            apis.read_text()
            + '\n[[api]]\nname = "DISMISS"\n'
            'description = "Dismiss notifications."\ntokens = ["dismiss"]\n'
        )
        new = factory.refresh()
        assert new is not None and new is not old
        assert new.grammar_hash() != old.grammar_hash()
        assert factory() is new
        out = Synthesizer(new).synthesize("dismiss every alert")
        assert out.codelet == "DISMISS(ALERTS())"

    def test_refresh_invalid_raises_and_keeps_serving(self, factory):
        old = factory()
        grammar = factory.root / "grammar.bnf"
        grammar.write_text(grammar.read_text() + "broken ::=\n")
        with pytest.raises(PackError):
            factory.refresh()
        assert factory() is old


# ---------------------------------------------------------------------------
# Registration + discovery
# ---------------------------------------------------------------------------


class TestRegistration:
    def test_register_is_idempotent_for_same_dir(self, tmp_path):
        root = scaffold_pack(tmp_path, "demo_reg")
        try:
            assert register_pack(root) == "demo_reg"
            assert register_pack(root) == "demo_reg"  # same dir: no-op
            assert is_registered("demo_reg")
        finally:
            _unregister_quietly("demo_reg")

    def test_name_collision_from_other_dir_rejected(self, tmp_path):
        first = scaffold_pack(tmp_path / "a", "demo_reg")
        second = scaffold_pack(tmp_path / "b", "demo_reg")
        try:
            register_pack(first)
            with pytest.raises(PackError, match="collides"):
                register_pack(second)
        finally:
            _unregister_quietly("demo_reg")

    def test_collision_with_builtin_domain_rejected(self, tmp_path):
        root = scaffold_pack(tmp_path, "textediting")
        with pytest.raises(PackError, match="collides"):
            register_pack(root)

    def test_add_pack_path_exports_env(self, tmp_path, clean_env):
        folder = tmp_path / "packs"
        scaffold_pack(folder, "demo_env")
        try:
            assert add_pack_path(folder) == ["demo_env"]
            entries = os.environ[PACK_PATH_ENV].split(os.pathsep)
            assert str(folder.resolve()) in entries
            # idempotent: the env entry is not duplicated
            add_pack_path(folder)
            assert os.environ[PACK_PATH_ENV].split(os.pathsep).count(
                str(folder.resolve())
            ) == 1
        finally:
            _unregister_quietly("demo_env")

    def test_discover_packs_on_non_directory(self, tmp_path):
        assert discover_packs(tmp_path / "missing") == []


# ---------------------------------------------------------------------------
# Scaffold end to end: init -> validate -> register -> synthesize
# ---------------------------------------------------------------------------


class TestScaffoldEndToEnd:
    def test_scaffold_validates_and_synthesizes(self, tmp_path, clean_env):
        root = scaffold_pack(tmp_path, "demo_e2e")
        spec, issues = validate_pack(root)
        assert issues == []
        try:
            add_pack_path(root)
            domain = load_domain("demo_e2e")
            assert domain.provenance["name"] == "demo_e2e"
            synth = Synthesizer(domain)
            for case in spec.examples:
                out = synth.synthesize(case.query, timeout_seconds=30)
                assert out.codelet == case.ground_truth, case.query
        finally:
            _unregister_quietly("demo_e2e")

    def test_scaffold_refuses_existing_dir(self, tmp_path):
        scaffold_pack(tmp_path, "demo_dup")
        with pytest.raises(PackError, match="already exists"):
            scaffold_pack(tmp_path, "demo_dup")

    def test_scaffold_rejects_bad_name(self, tmp_path):
        with pytest.raises(PackError, match="must match"):
            scaffold_pack(tmp_path, "Bad-Name")
