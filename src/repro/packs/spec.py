"""Domain pack format: parsing and validation of the on-disk artifacts.

A *domain pack* is a directory of plain-text files that fully describes a
synthesis domain — the paper's point that a domain is nothing but "the API
document and the BNF grammar" made literal, in the spirit of the plain-text
grammar + dictionary files of Desai et al.'s NLPro systems:

``pack.toml``
    The manifest: pack identity plus knobs (literal slots, pruning policy,
    matcher tunables, path-search limits, cache capacities).
``grammar.bnf``
    The target DSL grammar, in the dialect of :mod:`repro.grammar.bnf`.
``apis.toml``
    The API document: one ``[[api]]`` table per entry with ``name``,
    ``description``, optional ``tokens`` (explicit name-token split) and
    ``category``.
``synonyms.toml`` (optional)
    Domain lexical knowledge: ``[[group]]`` tables with a ``words`` array
    (first member is the canonical label) and an ``[abbreviations]`` table.
``examples.jsonl`` (optional)
    The bundled evaluation suite: one JSON object per line with ``id``,
    ``query``, ``ground_truth`` and optional ``family`` / ``complexity``
    — exactly the fields of :class:`repro.eval.dataset.QueryCase`.

Everything is validated with **precise, line-numbered issues**
(:class:`PackIssue`): the mini-TOML reader tracks the defining line of
every key, the BNF parser reports its own line numbers, and example
ground truths are re-parsed and checked against the built grammar graph.
:func:`validate_pack` returns all issues; :func:`load_pack` raises
:class:`~repro.errors.PackError` when any are found.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.errors import BNFSyntaxError, PackError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synthesis.domain import Domain
from repro.eval.dataset import QueryCase
from repro.packs import tomlmini

#: Manifest file name that marks a directory as a pack.
MANIFEST_NAME = "pack.toml"

#: Current pack format version (the manifest's ``[pack] format``).
PACK_FORMAT = 1

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Recognized manifest tables and their allowed keys (None = any).
_SCHEMA: Dict[str, Optional[Tuple[str, ...]]] = {
    "pack": ("name", "version", "description", "format"),
    "grammar": ("file", "start", "generic_apis"),
    "apis": ("file",),
    "synonyms": ("file",),
    "examples": ("file",),
    "literals": ("quoted", "number"),
    "pruning": (
        "quantifier_lemmas",
        "merge_amod_lemmas",
        "drop_root_lemmas",
        "keep_lemmas",
        "drop_lemmas",
    ),
    "matching": (
        "max_candidates",
        "min_score",
        "description_weight",
        "similarity_weight",
        "similarity_floor",
    ),
    "limits": (
        "max_path_len",
        "max_paths",
        "max_visits",
        "max_paths_per_edge",
        "max_extra_len",
    ),
    "cache": ("paths", "conflicts", "sizes", "merge", "outcomes"),
}

#: Default companion file names, overridable per manifest section.
_DEFAULT_FILES = {
    "grammar": "grammar.bnf",
    "apis": "apis.toml",
    "synonyms": "synonyms.toml",
    "examples": "examples.jsonl",
}


@dataclass(frozen=True)
class PackIssue:
    """One validation problem, pinned to a file (and line when known)."""

    file: str
    line: Optional[int]
    message: str

    def __str__(self) -> str:
        where = self.file if self.line is None else f"{self.file}:{self.line}"
        return f"{where}: {self.message}"


@dataclass
class PackSpec:
    """The fully parsed (but not yet built) content of one pack."""

    root: Path
    name: str
    version: str
    description: str = ""
    format: int = PACK_FORMAT
    grammar_source: str = ""
    grammar_file: str = _DEFAULT_FILES["grammar"]
    apis_file: str = _DEFAULT_FILES["apis"]
    synonyms_file: str = _DEFAULT_FILES["synonyms"]
    examples_file: str = _DEFAULT_FILES["examples"]
    grammar_start: Optional[str] = None
    generic_apis: Tuple[str, ...] = ()
    apis: List[Dict[str, Any]] = field(default_factory=list)
    synonym_groups: List[Tuple[str, ...]] = field(default_factory=list)
    abbreviations: Dict[str, str] = field(default_factory=dict)
    literal_targets: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    pruning: Dict[str, Any] = field(default_factory=dict)
    matching: Dict[str, Any] = field(default_factory=dict)
    limits: Dict[str, int] = field(default_factory=dict)
    cache_capacities: Dict[str, int] = field(default_factory=dict)
    examples: List[QueryCase] = field(default_factory=list)
    content_hash: str = ""
    files: Tuple[str, ...] = ()

    def provenance(self) -> Dict[str, str]:
        """The metadata a built Domain carries about its origin."""
        return {
            "name": self.name,
            "version": self.version,
            "source": str(self.root),
            "content_hash": self.content_hash,
        }

    # ------------------------------------------------------------------

    def build_domain(self) -> "Domain":
        """Materialize a :class:`~repro.synthesis.domain.Domain` through
        the existing ``parse_bnf`` / ``Domain.create`` machinery."""
        from repro.grammar.paths import PathSearchLimits
        from repro.nlp.pruning import PruneConfig
        from repro.nlu.docs import ApiDoc
        from repro.nlu.synonyms import SynonymTable
        from repro.nlu.word2api import MatchConfig
        from repro.synthesis.domain import Domain

        docs = [
            ApiDoc(
                name=entry["name"],
                description=entry.get("description", ""),
                name_tokens=tuple(entry.get("tokens", ())),
                category=entry.get("category", ""),
            )
            for entry in self.apis
        ]
        synonyms = SynonymTable(abbreviations=self.abbreviations)
        for group in self.synonym_groups:
            synonyms.add_group(group)
        prune_kwargs = {
            key: frozenset(values) for key, values in self.pruning.items()
        }
        domain = Domain.create(
            name=self.name,
            bnf_source=self.grammar_source,
            api_docs=docs,
            synonyms=synonyms,
            prune_config=PruneConfig(**prune_kwargs) if prune_kwargs else None,
            literal_targets=self.literal_targets or None,
            match_config=(
                MatchConfig(**self.matching) if self.matching else None
            ),
            description=self.description,
            path_limits=(
                PathSearchLimits(**self.limits) if self.limits else None
            ),
            generic_apis=self.generic_apis or None,
            cache_capacities=self.cache_capacities or None,
            start=self.grammar_start,
            provenance=self.provenance(),
        )
        return domain

    def query_cases(self) -> List[QueryCase]:
        """The bundled evaluation suite (may be empty)."""
        return list(self.examples)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class _Reader:
    """Single-pack reader that accumulates issues instead of stopping at
    the first problem, so ``repro pack validate`` reports everything."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.issues: List[PackIssue] = []
        self.hashed: List[Tuple[str, bytes]] = []

    def issue(
        self, file: str, line: Optional[int], message: str
    ) -> None:
        self.issues.append(PackIssue(file, line, message))

    def read_text(self, name: str) -> Optional[str]:
        path = self.root / name
        try:
            raw = path.read_bytes()
        except OSError as exc:
            self.issue(name, None, f"cannot read file: {exc}")
            return None
        self.hashed.append((name, raw))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            self.issue(name, None, f"not valid UTF-8: {exc}")
            return None

    # -- manifest ------------------------------------------------------

    def read(self) -> Optional[PackSpec]:
        if not self.root.is_dir():
            self.issue(
                MANIFEST_NAME, None, f"{self.root} is not a directory"
            )
            return None
        manifest = self.read_text(MANIFEST_NAME)
        if manifest is None:
            return None
        try:
            data, lines = tomlmini.parse(manifest)
        except tomlmini.TomlError as exc:
            self.issue(MANIFEST_NAME, exc.line, exc.message)
            return None

        self._check_schema(data, lines)
        pack = data.get("pack")
        if not isinstance(pack, dict):
            self.issue(MANIFEST_NAME, None, "missing [pack] table")
            return None
        name = self._required_str(pack, "pack", "name", lines)
        version = self._required_str(pack, "pack", "version", lines)
        if name is None or version is None:
            return None
        if not _NAME_RE.match(name):
            self.issue(
                MANIFEST_NAME,
                lines.get(("pack", "name")),
                f"pack name {name!r} must match [a-z][a-z0-9_]*",
            )
            return None
        fmt = pack.get("format", PACK_FORMAT)
        if fmt != PACK_FORMAT:
            self.issue(
                MANIFEST_NAME,
                lines.get(("pack", "format")),
                f"unsupported pack format {fmt!r} "
                f"(this loader reads format {PACK_FORMAT})",
            )
            return None

        spec = PackSpec(
            root=self.root,
            name=name,
            version=version,
            description=str(pack.get("description", "")),
        )
        self._read_grammar(data, lines, spec)
        self._read_apis(data, lines, spec)
        self._read_synonyms(data, lines, spec)
        self._read_literals(data, lines, spec)
        self._read_tunables(data, lines, spec)
        self._read_examples(data, lines, spec)

        digest = hashlib.sha256()
        for fname, raw in sorted(self.hashed):
            digest.update(fname.encode("utf-8"))
            digest.update(b"\0")
            digest.update(raw)
            digest.update(b"\0")
        spec.content_hash = digest.hexdigest()
        spec.files = tuple(sorted(fname for fname, _ in self.hashed))
        return spec

    def _check_schema(self, data: Dict[str, Any], lines) -> None:
        for table, value in data.items():
            if table == "api" or table == "group":
                self.issue(
                    MANIFEST_NAME,
                    lines.get((table, 0)),
                    f"[[{table}]] belongs in "
                    f"{'apis.toml' if table == 'api' else 'synonyms.toml'}, "
                    "not the manifest",
                )
                continue
            if table not in _SCHEMA:
                self.issue(
                    MANIFEST_NAME,
                    lines.get((table,)),
                    f"unknown manifest table [{table}]",
                )
                continue
            allowed = _SCHEMA[table]
            if allowed is None or not isinstance(value, dict):
                continue
            for key in value:
                if key not in allowed:
                    self.issue(
                        MANIFEST_NAME,
                        lines.get((table, key)),
                        f"unknown key {key!r} in [{table}] "
                        f"(allowed: {', '.join(allowed)})",
                    )

    def _required_str(
        self, table: Dict[str, Any], tname: str, key: str, lines
    ) -> Optional[str]:
        value = table.get(key)
        if not isinstance(value, str) or not value:
            self.issue(
                MANIFEST_NAME,
                lines.get((tname, key), lines.get((tname,))),
                f"[{tname}] requires a non-empty string {key!r}",
            )
            return None
        return value

    def _str_list(
        self, value: Any, file: str, line: Optional[int], what: str
    ) -> Optional[Tuple[str, ...]]:
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            self.issue(file, line, f"{what} must be an array of strings")
            return None
        return tuple(value)

    def _section_file(
        self, data: Dict[str, Any], lines, section: str
    ) -> str:
        table = data.get(section) or {}
        name = table.get("file", _DEFAULT_FILES[section])
        if not isinstance(name, str) or not name:
            self.issue(
                MANIFEST_NAME,
                lines.get((section, "file")),
                f"[{section}] file must be a non-empty string",
            )
            return _DEFAULT_FILES[section]
        if Path(name).is_absolute() or ".." in Path(name).parts:
            self.issue(
                MANIFEST_NAME,
                lines.get((section, "file")),
                f"[{section}] file must be a plain name inside the pack, "
                f"got {name!r}",
            )
            return _DEFAULT_FILES[section]
        return name

    # -- grammar -------------------------------------------------------

    def _read_grammar(
        self, data: Dict[str, Any], lines, spec: PackSpec
    ) -> None:
        spec.grammar_file = self._section_file(data, lines, "grammar")
        table = data.get("grammar") or {}
        start = table.get("start")
        if start is not None and not isinstance(start, str):
            self.issue(
                MANIFEST_NAME,
                lines.get(("grammar", "start")),
                "grammar start must be a string",
            )
            start = None
        spec.grammar_start = start
        generic = table.get("generic_apis")
        if generic is not None:
            got = self._str_list(
                generic,
                MANIFEST_NAME,
                lines.get(("grammar", "generic_apis")),
                "grammar generic_apis",
            )
            spec.generic_apis = got or ()
        source = self.read_text(spec.grammar_file)
        if source is None:
            return
        spec.grammar_source = source
        try:
            from repro.grammar.bnf import parse_bnf

            grammar = parse_bnf(source, start=spec.grammar_start)
        except BNFSyntaxError as exc:
            self.issue(spec.grammar_file, exc.line, exc.bare_message)
            return
        except ReproError as exc:
            self.issue(spec.grammar_file, None, str(exc))
            return
        if (
            spec.grammar_start is not None
            and spec.grammar_start not in grammar.nonterminals
        ):
            self.issue(
                MANIFEST_NAME,
                lines.get(("grammar", "start")),
                f"start symbol {spec.grammar_start!r} is not a nonterminal "
                "of the grammar",
            )

    # -- apis ----------------------------------------------------------

    def _read_apis(
        self, data: Dict[str, Any], lines, spec: PackSpec
    ) -> None:
        fname = self._section_file(data, lines, "apis")
        spec.apis_file = fname
        source = self.read_text(fname)
        if source is None:
            return
        try:
            doc, doc_lines = tomlmini.parse(source)
        except tomlmini.TomlError as exc:
            self.issue(fname, exc.line, exc.message)
            return
        entries = doc.get("api")
        unknown_tables = sorted(set(doc) - {"api"})
        for table in unknown_tables:
            self.issue(
                fname,
                doc_lines.get((table,), doc_lines.get((table, 0))),
                f"unknown table [{table}] (expected only [[api]] entries)",
            )
        if not isinstance(entries, list) or not entries:
            self.issue(fname, None, "no [[api]] entries found")
            return
        seen: Dict[str, int] = {}
        for index, entry in enumerate(entries):
            line = doc_lines.get(("api", index))
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                self.issue(
                    fname, line, "[[api]] requires a non-empty string 'name'"
                )
                continue
            desc = entry.get("description")
            if not isinstance(desc, str) or not desc:
                self.issue(
                    fname,
                    line,
                    f"api {name!r} requires a non-empty 'description'",
                )
            if name in seen:
                self.issue(
                    fname,
                    doc_lines.get(("api", index, "name"), line),
                    f"api {name!r} duplicates the entry on line "
                    f"{seen[name]}",
                )
                continue
            seen[name] = doc_lines.get(("api", index, "name"), line) or 0
            tokens = entry.get("tokens", [])
            if self._str_list(
                tokens,
                fname,
                doc_lines.get(("api", index, "tokens"), line),
                f"api {name!r} tokens",
            ) is None:
                entry = dict(entry, tokens=[])
            category = entry.get("category", "")
            if not isinstance(category, str):
                self.issue(
                    fname,
                    doc_lines.get(("api", index, "category"), line),
                    f"api {name!r} category must be a string",
                )
                entry = dict(entry, category="")
            unknown = sorted(
                set(entry) - {"name", "description", "tokens", "category"}
            )
            if unknown:
                self.issue(
                    fname,
                    doc_lines.get(("api", index, unknown[0]), line),
                    f"api {name!r} has unknown key(s): {', '.join(unknown)}",
                )
            spec.apis.append(dict(entry))

    # -- synonyms ------------------------------------------------------

    def _read_synonyms(
        self, data: Dict[str, Any], lines, spec: PackSpec
    ) -> None:
        fname = self._section_file(data, lines, "synonyms")
        spec.synonyms_file = fname
        if "synonyms" not in data and not (self.root / fname).exists():
            return  # optional
        source = self.read_text(fname)
        if source is None:
            return
        try:
            doc, doc_lines = tomlmini.parse(source)
        except tomlmini.TomlError as exc:
            self.issue(fname, exc.line, exc.message)
            return
        for table in sorted(set(doc) - {"group", "abbreviations"}):
            self.issue(
                fname,
                doc_lines.get((table,), doc_lines.get((table, 0))),
                f"unknown table [{table}] "
                "(expected [[group]] and [abbreviations])",
            )
        for index, group in enumerate(doc.get("group", [])):
            line = doc_lines.get(("group", index))
            words = self._str_list(
                group.get("words"),
                fname,
                doc_lines.get(("group", index, "words"), line),
                "[[group]] words",
            )
            if words is None:
                continue
            if len(words) < 2:
                self.issue(
                    fname,
                    doc_lines.get(("group", index, "words"), line),
                    "a synonym group needs at least two words",
                )
                continue
            unknown = sorted(set(group) - {"words"})
            if unknown:
                self.issue(
                    fname, line,
                    f"[[group]] has unknown key(s): {', '.join(unknown)}",
                )
            spec.synonym_groups.append(tuple(w.lower() for w in words))
        abbrevs = doc.get("abbreviations", {})
        if not isinstance(abbrevs, dict):
            self.issue(fname, None, "[abbreviations] must be a table")
            return
        for short, full in abbrevs.items():
            if not isinstance(full, str) or not full:
                self.issue(
                    fname,
                    doc_lines.get(("abbreviations", short)),
                    f"abbreviation {short!r} must map to a non-empty string",
                )
                continue
            spec.abbreviations[short.lower()] = full.lower()

    # -- literals / tunables -------------------------------------------

    def _read_literals(
        self, data: Dict[str, Any], lines, spec: PackSpec
    ) -> None:
        table = data.get("literals") or {}
        for kind in ("quoted", "number"):
            if kind not in table:
                continue
            got = self._str_list(
                table[kind],
                MANIFEST_NAME,
                lines.get(("literals", kind)),
                f"literals {kind}",
            )
            if got is not None:
                spec.literal_targets[kind] = got

    def _read_tunables(
        self, data: Dict[str, Any], lines, spec: PackSpec
    ) -> None:
        for key, values in (data.get("pruning") or {}).items():
            if key not in _SCHEMA["pruning"]:
                continue  # already flagged by _check_schema
            got = self._str_list(
                values, MANIFEST_NAME, lines.get(("pruning", key)),
                f"pruning {key}",
            )
            if got is not None:
                spec.pruning[key] = got
        for key, value in (data.get("matching") or {}).items():
            if key not in _SCHEMA["matching"]:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                self.issue(
                    MANIFEST_NAME,
                    lines.get(("matching", key)),
                    f"matching {key} must be a number, got {value!r}",
                )
                continue
            spec.matching[key] = (
                int(value) if key == "max_candidates" else float(value)
            )
        # A cache layer needs room for one entry (LruCache rejects 0);
        # a path-search limit of 0 is a meaningful bound.
        for table_name, target, least, kind in (
            ("limits", spec.limits, 0, "non-negative"),
            ("cache", spec.cache_capacities, 1, "positive"),
        ):
            for key, value in (data.get(table_name) or {}).items():
                if key not in _SCHEMA[table_name]:
                    continue
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < least:
                    self.issue(
                        MANIFEST_NAME,
                        lines.get((table_name, key)),
                        f"{table_name} {key} must be a {kind} "
                        f"integer, got {value!r}",
                    )
                    continue
                target[key] = value

    # -- examples ------------------------------------------------------

    def _read_examples(
        self, data: Dict[str, Any], lines, spec: PackSpec
    ) -> None:
        fname = self._section_file(data, lines, "examples")
        spec.examples_file = fname
        if "examples" not in data and not (self.root / fname).exists():
            return  # optional
        source = self.read_text(fname)
        if source is None:
            return
        seen_ids: Dict[str, int] = {}
        seen_queries: Dict[str, int] = {}
        for line_no, raw in enumerate(source.splitlines(), start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                self.issue(fname, line_no, f"malformed JSON: {exc.msg}")
                continue
            if not isinstance(obj, dict):
                self.issue(fname, line_no, "each example must be an object")
                continue
            missing = [
                key for key in ("id", "query", "ground_truth")
                if not isinstance(obj.get(key), str) or not obj.get(key)
            ]
            if missing:
                self.issue(
                    fname,
                    line_no,
                    f"example missing required string field(s): "
                    f"{', '.join(missing)}",
                )
                continue
            complexity = obj.get("complexity", 2)
            if not isinstance(complexity, int) or isinstance(complexity, bool):
                self.issue(
                    fname, line_no,
                    f"complexity must be an integer, got {complexity!r}",
                )
                complexity = 2
            family = obj.get("family", "default")
            if not isinstance(family, str):
                self.issue(fname, line_no, "family must be a string")
                family = "default"
            unknown = sorted(
                set(obj) - {"id", "query", "ground_truth", "family",
                            "complexity", "input", "output"}
            )
            if unknown:
                self.issue(
                    fname, line_no,
                    f"example has unknown key(s): {', '.join(unknown)}",
                )
            example_input = obj.get("input")
            example_output = obj.get("output")
            if (example_input is None) != (example_output is None):
                self.issue(
                    fname, line_no,
                    "example 'input' and 'output' must be given together",
                )
                example_input = example_output = None
            elif example_input is not None and (
                not isinstance(example_input, str)
                or not isinstance(example_output, str)
            ):
                self.issue(
                    fname, line_no,
                    "example 'input'/'output' must be strings",
                )
                example_input = example_output = None
            case_id = obj["id"]
            if case_id in seen_ids:
                self.issue(
                    fname, line_no,
                    f"id {case_id!r} duplicates line {seen_ids[case_id]}",
                )
                continue
            seen_ids[case_id] = line_no
            if obj["query"] in seen_queries:
                self.issue(
                    fname, line_no,
                    f"query duplicates line {seen_queries[obj['query']]}",
                )
                continue
            seen_queries[obj["query"]] = line_no
            spec.examples.append(
                QueryCase(
                    case_id=case_id,
                    query=obj["query"],
                    ground_truth=obj["ground_truth"],
                    family=family,
                    complexity=complexity,
                    example_input=example_input,
                    example_output=example_output,
                )
            )


# ---------------------------------------------------------------------------
# Cross-file (semantic) validation
# ---------------------------------------------------------------------------


def _semantic_issues(spec: PackSpec) -> List[PackIssue]:
    """Checks that need several files at once: document/grammar coverage,
    literal-slot consistency, and grammar-valid example ground truths."""
    issues: List[PackIssue] = []
    if not spec.grammar_source or not spec.apis:
        return issues
    try:
        from repro.grammar.bnf import parse_bnf

        grammar = parse_bnf(spec.grammar_source, start=spec.grammar_start)
    except ReproError:
        return issues  # already reported with its own line number

    api_file = spec.apis_file
    api_names = [entry["name"] for entry in spec.apis if "name" in entry]
    for name in api_names:
        if name not in grammar.terminals:
            issues.append(PackIssue(
                api_file, None,
                f"api {name!r} is not a terminal of the grammar",
            ))
    slots = grammar.terminals - set(api_names)
    listed = set()
    for kind, targets in spec.literal_targets.items():
        for slot in targets:
            listed.add(slot)
            if slot not in slots:
                issues.append(PackIssue(
                    MANIFEST_NAME, None,
                    f"literals {kind} slot {slot!r} is not a literal "
                    "(non-API) terminal of the grammar",
                ))
    unlisted = sorted(slots - listed)
    if unlisted:
        issues.append(PackIssue(
            MANIFEST_NAME, None,
            "grammar terminal(s) neither documented as APIs nor listed "
            f"as literal slots: {', '.join(unlisted[:8])}",
        ))
    if issues:
        return issues

    # Ground truths: parse and validate against the built grammar graph.
    if spec.examples:
        try:
            domain = spec.build_domain()
        except ReproError as exc:
            issues.append(PackIssue(MANIFEST_NAME, None, str(exc)))
            return issues
        from repro.core.expression import parse_expression, validate_expression

        example_file = spec.examples_file
        line_by_id = _example_lines(spec)
        for case in spec.examples:
            try:
                expr = parse_expression(case.ground_truth)
            except ReproError as exc:
                issues.append(PackIssue(
                    example_file, line_by_id.get(case.case_id),
                    f"example {case.case_id!r} ground truth does not "
                    f"parse: {exc}",
                ))
                continue
            for problem in validate_expression(expr, domain.graph):
                issues.append(PackIssue(
                    example_file, line_by_id.get(case.case_id),
                    f"example {case.case_id!r} ground truth is not "
                    f"grammar-valid: {problem}",
                ))
        issues.extend(_executor_replay_issues(spec, domain))
    return issues


def _executor_replay_issues(spec: PackSpec, domain) -> List[PackIssue]:
    """Replay every input→output fixture through the domain's registered
    executor: the authored ground truth must actually reproduce the
    authored output, so the same cases double as trustworthy verification
    fixtures (docs/verification.md).  Domains without an executor skip
    the check (the fixtures are then documentation only)."""
    from repro.verify.executors import get_executor, has_executor

    issues: List[PackIssue] = []
    if not has_executor(spec.name):
        return issues
    executor = get_executor(spec.name)
    example_file = spec.examples_file
    line_by_id = _example_lines(spec)
    for case in spec.examples:
        if case.example_input is None or case.example_output is None:
            continue
        try:
            observed = executor(case.ground_truth, case.example_input)
        except Exception as exc:  # noqa: BLE001 - any failure is an issue
            issues.append(PackIssue(
                example_file, line_by_id.get(case.case_id),
                f"example {case.case_id!r} ground truth fails to execute "
                f"on its input: {type(exc).__name__}: {exc}",
            ))
            continue
        if observed != case.example_output:
            issues.append(PackIssue(
                example_file, line_by_id.get(case.case_id),
                f"example {case.case_id!r} ground truth does not "
                f"reproduce its output: expected "
                f"{case.example_output!r}, observed {observed!r}",
            ))
    return issues


def _example_lines(spec: PackSpec) -> Dict[str, int]:
    """Best-effort map of example id -> line in the examples file."""
    path = spec.root / spec.examples_file
    out: Dict[str, int] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return out
    for line_no, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("id"), str):
            out.setdefault(obj["id"], line_no)
    return out


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def validate_pack(
    root: Union[str, Path]
) -> Tuple[Optional[PackSpec], List[PackIssue]]:
    """Read and fully validate the pack at ``root``.

    Returns ``(spec, issues)``: the parsed spec (None when the manifest
    itself is unusable) and *every* issue found — empty means the pack is
    valid and :meth:`PackSpec.build_domain` will succeed.
    """
    reader = _Reader(root)
    spec = reader.read()
    issues = list(reader.issues)
    if spec is not None and not issues:
        issues.extend(_semantic_issues(spec))
    return spec, issues


def load_pack(root: Union[str, Path]) -> PackSpec:
    """Load a validated pack, raising :class:`~repro.errors.PackError`
    (with the full issue list) when anything is wrong."""
    spec, issues = validate_pack(root)
    if issues or spec is None:
        raise PackError(
            f"pack at {root} failed validation "
            f"({len(issues)} issue{'s' if len(issues) != 1 else ''})",
            issues,
        )
    return spec


def is_pack_dir(path: Union[str, Path]) -> bool:
    """True when ``path`` is a directory containing a pack manifest."""
    return (Path(path) / MANIFEST_NAME).is_file()
