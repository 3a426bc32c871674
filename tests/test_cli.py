"""Unit tests for the CLI and the explain module."""

import pytest

from repro.cli import build_arg_parser, domains_main, main
from repro.synthesis.explain import explain_problem, explain_query
from repro.synthesis.pipeline import Synthesizer
from repro.synthesis.problem import build_problem


class TestArgParser:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["hello"])
        assert args.query == "hello"
        assert args.domain == "textediting"
        assert args.engine == "dggt"
        assert args.timeout == 20.0

    def test_ablation_flags(self):
        args = build_arg_parser().parse_args(
            ["q", "--no-grammar-pruning", "--no-size-pruning"]
        )
        assert args.no_grammar_pruning and args.no_size_pruning


class TestMain:
    def test_synthesis_success(self, capsys):
        code = main(["delete every word that contains numbers"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip().startswith("DELETE(")
        assert "engine=dggt" in captured.err

    def test_engine_flag(self, capsys):
        code = main(["--engine", "hisyn", "print every line"])
        assert code == 0
        assert "engine=hisyn" in capsys.readouterr().err

    def test_stats_flag(self, capsys):
        from repro import load_domain

        load_domain("textediting").path_cache.clear()
        code = main(["--stats", "print every line"])
        assert code == 0
        err = capsys.readouterr().err
        assert "combinations" in err
        # --stats implies the per-stage timing lines.
        assert "# stage merge = " in err

    def test_trace_flag(self, capsys):
        from repro import load_domain

        # The registry domain is shared across tests; a warm outcome
        # cache would answer before any stage runs (cache-hit trace).
        load_domain("textediting").path_cache.clear()
        code = main(["--trace", "print every line"])
        assert code == 0
        err = capsys.readouterr().err
        for stage in (
            "parse", "prune", "word_to_api", "edge_to_path", "merge",
            "codegen",
        ):
            assert f"# stage {stage} = " in err
        # --trace alone does not drag in the counters.
        assert "combinations" not in err

    def test_no_trace_by_default(self, capsys):
        code = main(["print every line"])
        assert code == 0
        assert "# stage " not in capsys.readouterr().err

    def test_timeout_names_stage(self, capsys):
        code = main(["--timeout", "0", "print every line"])
        assert code == 1
        assert "expired in stage 'parse'" in capsys.readouterr().err

    def test_list_domains(self, capsys):
        code = domains_main([])
        out = capsys.readouterr().out
        assert code == 0
        assert "textediting" in out and "astmatcher" in out

    def test_missing_query(self, capsys):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_unknown_domain(self, capsys):
        assert main(["--domain", "nope", "q"]) == 2

    @pytest.mark.parametrize(
        "flags", [["--backend", "process"], ["--pool-workers", "2"]]
    )
    def test_serve_has_no_process_pool_flags(self, capsys, flags):
        # Serving spreads over cores with pre-fork --workers only.
        with pytest.raises(SystemExit) as info:
            main(["serve", "--stdio", *flags])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro serve")
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_serve_has_no_adaptive_queue_flag(self, capsys):
        # The deadline-sized queue and work-conserving budgets are the
        # scheduler's only admission policy.
        with pytest.raises(SystemExit) as info:
            main(["serve", "--stdio", "--adaptive-queue"])
        assert info.value.code == 2
        assert "unrecognized arguments: --adaptive-queue" in (
            capsys.readouterr().err
        )

    def test_serve_zero_timeout_is_a_usage_error(self, capsys):
        assert main(["serve", "--stdio", "--timeout", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: the default timeout must be positive, got 0.0 seconds\n"
        )

    def test_unsynthesizable_query(self, capsys):
        assert main(["zebra giraffe pumpkin"]) == 1

    def test_top_with_examples_prints_verified_winner_first(self, capsys):
        code = main(
            ["--top", "3", "--example", "aa\\nbb=-aa\\n-bb",
             'place "-" at the start of each line']
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == (
            '1. INSERT(STRING("-"), START(), ITERATIONSCOPE(LINESCOPE(), '
            "BCONDOCCURRENCE(ALL())))"
        )
        assert [line.split(". ", 1)[0] for line in lines] == [
            str(i) for i in range(1, len(lines) + 1)
        ]
        assert "# verification: status=verified" in captured.err

    def test_candidates_without_examples_prints_list(self, capsys):
        code = main(["--candidates", "3", 'place "-" at the start of each line'])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert lines[0] == (
            '1. INSERT(ITERATIONSCOPE(LINESCOPE(), '
            'BCONDOCCURRENCE(STARTSWITH("-"), ALL())))'
        )
        assert [line[:3] for line in lines] == ["1. ", "2. ", "3. "]
        assert "engine=dggt" in captured.err

    def test_top_and_candidates_are_one_option(self):
        parser = build_arg_parser()
        assert parser.parse_args(["q"]).candidates is None
        assert parser.parse_args(["q", "--top", "2"]).candidates == 2
        assert parser.parse_args(["q", "--candidates", "2"]).candidates == 2

    @pytest.mark.parametrize("flag", ["--top", "--candidates"])
    def test_candidates_below_one_rejected(self, capsys, flag):
        assert main([flag, "0", "print every line"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_single_candidate_prints_bare_codelet(self, capsys):
        assert main(["--top", "1", "print every line"]) == 0
        assert capsys.readouterr().out == (
            "PRINT(ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))\n"
        )

    def test_explain_failure_is_an_error_not_a_crash(self, capsys):
        assert main(["--explain", "zebra giraffe pumpkin"]) == 1
        assert capsys.readouterr().err.startswith("error: no API candidates")

    def test_explain_uses_the_configured_engine(self, capsys):
        code = main(["--explain", "--no-grammar-pruning",
                     'insert ":" at the start of each line'])
        assert code == 0
        assert " pruned_grammar=0 " in capsys.readouterr().out

    def test_explain_runs_the_pipeline_once(self, capsys, monkeypatch):
        # The walk-through, the printed codelet, the verdicts and the
        # --stats lines all come from one run.
        from repro.verify import verifier

        calls = []
        real = verifier.verify_candidates

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(verifier, "verify_candidates", counting)
        code = main(["--explain", "--stats", "--example", "aa\\nbb=-aa\\n-bb",
                     'place "-" at the start of each line'])
        assert code == 0
        assert len(calls) == 1
        out, err = capsys.readouterr()
        assert "promoted rank 2: " in out
        assert "# verification: status=verified winner_rank=2" in err

    def test_explain_flag(self, capsys):
        code = main(["--explain", "print every line"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Step 1" in out and "Step 4" in out


class TestExplain:
    def test_explain_query_sections(self, textediting):
        text = explain_query(
            textediting, "insert ':' at the start of each line"
        )
        for section in (
            "Step 1", "Step 2", "Step 3", "Step 4", "Orphans", "Steps 5+6",
            "codelet:",
        ):
            assert section in text

    def test_explain_problem_paths_sample(self, toy_domain):
        problem = build_problem(toy_domain, 'insert ":" into lines')
        text = explain_problem(problem, max_paths_shown=1)
        assert "candidate paths" in text
        assert "->" in text

    def test_explain_examples_match_synthesizer(self, textediting):
        query = 'place "-" at the start of each line'
        examples = [("aa\nbb", "-aa\n-bb")]
        text = explain_query(textediting, query, examples=examples)
        outcome = Synthesizer(textediting).synthesize(
            query, 20.0, examples=examples
        )
        assert "Verification — execution-guided re-ranking:" in text
        assert f"{len(outcome.candidates)} candidate(s)" in text
        for verdict in outcome.verification.verdicts:
            assert f"rank {verdict.rank}: {verdict.verdict}" in text
        assert (
            f"promoted rank {outcome.verification.winner_rank}: "
            f"{outcome.codelet}"
        ) in text

    def test_explain_candidates_without_examples(self, textediting):
        query = 'place "-" at the start of each line'
        text = explain_query(textediting, query, candidates=3)
        outcome = Synthesizer(textediting).synthesize(query, candidates=3)
        assert "Ranked candidates (Sec. VII-B.4):" in text
        for cand in outcome.candidates:
            assert f"rank {cand.rank}: {cand.codelet}" in text

    def test_explain_failure_path(self, toy_domain):
        text = explain_query(toy_domain, "insert wordscope linescope start position")
        assert "Steps 5+6" in text
