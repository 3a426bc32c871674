"""Public-API surface tests: the names README and docs promise exist."""

import importlib

import pytest


class TestTopLevel:
    def test_readme_quickstart_names(self):
        import repro

        for name in (
            "Synthesizer", "load_domain", "available_domains", "Domain",
            "DggtEngine", "DggtConfig", "HISynEngine", "SynthesisOutcome",
            "SynthesisTimeout", "__version__",
        ):
            assert hasattr(repro, name), name

    def test_all_is_accurate(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module,names",
    [
        ("repro.grammar", ["parse_bnf", "GrammarGraph", "find_paths",
                           "PathVotedGraph", "GrammarPath"]),
        ("repro.nlp", ["tokenize", "tag", "parse_query", "prune_query_graph",
                       "DependencyGraph"]),
        ("repro.nlu", ["ApiDoc", "ApiDocument", "WordToApiMatcher",
                       "SynonymTable"]),
        ("repro.core", ["CGT", "DggtEngine", "DggtConfig", "VIRTUAL",
                        "relocation_variants", "cgt_to_expression",
                        "parse_expression", "validate_expression"]),
        ("repro.baseline", ["HISynEngine", "iter_combinations"]),
        ("repro.synthesis", ["Synthesizer", "build_problem", "Deadline",
                             "RankedCandidate", "explain_query"]),
        ("repro.eval", ["run_dataset", "accuracy", "speedup_summary",
                        "render_table2", "fig7_series"]),
        ("repro.runtime", ["execute_codelet", "parse_cpp", "match_codelet",
                           "TextDocument", "MatchEvaluator"]),
    ],
)
def test_package_surface(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), f"{module}.{name}"


def test_all_modules_have_docstrings():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    for path in root.rglob("*.py"):
        source = path.read_text()
        stripped = source.lstrip()
        assert stripped.startswith(('"""', '#!', "'''")), (
            f"{path} lacks a module docstring"
        )
