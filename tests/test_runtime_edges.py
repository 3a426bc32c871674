"""Edge-case tests for the runtime executors."""

import re
import time

import pytest

from repro.errors import ReproError
from repro.runtime.cppast import parse_cpp
from repro.runtime.matcher_eval import MatchError, MatchEvaluator, match_codelet
from repro.runtime.textedit import execute_codelet
from repro.verify.executors import get_executor


class TestTextEditEdges:
    def test_empty_document(self):
        result = execute_codelet(
            'INSERT(STRING("x"), ITERATIONSCOPE(LINESCOPE(), '
            "BCONDOCCURRENCE(ALL())))",
            "",
        )
        assert result.text == "x"

    def test_position_beyond_unit_clamps(self):
        result = execute_codelet(
            'INSERT(STRING("!"), POSITION("999"), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "ab",
        )
        assert result.text == "ab!"

    def test_nth_occurrence_out_of_range(self):
        result = execute_codelet(
            'INSERT(STRING("*"), END(), ITERATIONSCOPE(LINESCOPE(), '
            'BCONDOCCURRENCE(CONTAINS(NUMBERTOKEN()), NTHOCC("9"))))',
            "1\n2",
        )
        assert result.text == "1\n2"  # nothing selected

    def test_anchor_not_found_appends(self):
        result = execute_codelet(
            'INSERT(STRING("!"), AFTER(ANCHORSTR("zzz")), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "abc",
        )
        assert result.text == "abc!"

    def test_startswith_on_unit_boundary(self):
        result = execute_codelet(
            "DELETE(ITERATIONSCOPE(LINESCOPE(), "
            'BCONDOCCURRENCE(STARTSWITH("-"), ALL())))',
            "-a\nb-",
        )
        assert result.text == "\nb-"

    def test_matches_is_full_match(self):
        result = execute_codelet(
            'COUNT(ITERATIONSCOPE(LINESCOPE(), '
            'BCONDOCCURRENCE(MATCHES("abc"))))',
            "abc\nabcd",
        )
        assert result.count == 1

    def test_sentence_scope(self):
        result = execute_codelet(
            'INSERT(STRING(" [sic]"), END(), '
            "ITERATIONSCOPE(SENTENCESCOPE(), "
            "BCONDOCCURRENCE(CONTAINS(NUMBERTOKEN()), ALL())))",
            "First. Has 3 items. Last.",
        )
        assert "Has 3 items [sic]." in result.text

    def test_paragraph_scope(self):
        result = execute_codelet(
            'INSERT(STRING(">> "), START(), '
            "ITERATIONSCOPE(PARAGRAPHSCOPE(), BCONDOCCURRENCE(ALL())))",
            "p one\n\np two",
        )
        assert result.text == ">> p one\n\n>> p two"

    def test_charscope(self):
        result = execute_codelet(
            "COUNT(ITERATIONSCOPE(CHARSCOPE(), "
            'BCONDOCCURRENCE(MATCHES("a"))))',
            "banana",
        )
        assert result.count == 3


class TestCppEdges:
    def test_pointers_and_references(self):
        ast = parse_cpp("int* p; int& r = p; const char* s;")
        types = [n.attrs["type"] for n in ast.find("varDecl")]
        assert "int*" in types
        assert any("&" in t for t in types)

    def test_comments_skipped(self):
        ast = parse_cpp("// comment\nint x; /* block */ int y;")
        assert len(ast.find("varDecl")) == 2

    def test_member_call(self):
        ast = parse_cpp("int f() { obj.run(1); return 0; }")
        assert ast.find("cxxMemberCallExpr")

    def test_new_delete_throw(self):
        ast = parse_cpp(
            "int f() { int* p = new int(3); delete p; throw p; return 0; }"
        )
        assert ast.find("cxxNewExpr")
        assert ast.find("cxxDeleteExpr")
        assert ast.find("cxxThrowExpr")

    def test_array_subscript(self):
        ast = parse_cpp("int f() { return a[2]; }")
        sub = ast.find("arraySubscriptExpr")[0]
        hits = match_codelet(
            "arraySubscriptExpr(hasIndex(integerLiteral()))", ast
        )
        assert hits == [sub]

    def test_variadic_function(self):
        # the lexer has no "..." token; variadics via three dots appear as
        # separate '.' operators — assert graceful handling instead
        ast = parse_cpp("int printf(const char* fmt);")
        decl = ast.find("functionDecl")[0]
        assert decl.attrs["param_count"] == 1

    def test_enum(self):
        ast = parse_cpp("enum Color { RED, GREEN };")
        assert ast.find("enumDecl")[0].name == "Color"
        assert len(ast.find("enumConstantDecl")) == 2


class TestMatcherEdges:
    def test_literal_as_matcher_rejected(self):
        ast = parse_cpp("int x;")
        evaluator = MatchEvaluator(ast)
        from repro.core.expression import Expr

        with pytest.raises(MatchError):
            evaluator.matches(Expr("x", (), True), ast)

    def test_has_ancestor(self):
        ast = parse_cpp("int f() { if (1) { return 2; } return 0; }")
        hits = match_codelet(
            "integerLiteral(hasAncestor(ifStmt()))", ast
        )
        assert {h.name for h in hits} == {"1", "2"}

    def test_has_parent(self):
        ast = parse_cpp("int f() { return 7; }")
        hits = match_codelet("integerLiteral(hasParent(returnStmt()))", ast)
        assert [h.name for h in hits] == ["7"]

    def test_matches_name_regex(self):
        ast = parse_cpp("int get_a(); int get_b(); int set_c();")
        hits = match_codelet('functionDecl(matchesName("^get_"))', ast)
        assert len(hits) == 2

    def test_equals(self):
        ast = parse_cpp("int f() { return 42; }")
        assert match_codelet("integerLiteral(equals(42))", ast)
        assert not match_codelet("integerLiteral(equals(7))", ast)

    def test_then_else(self):
        ast = parse_cpp("int f() { if (1) return 2; else return 3; }")
        assert match_codelet("ifStmt(hasElse(returnStmt()))", ast)
        assert match_codelet("ifStmt(hasThen(returnStmt()))", ast)


class TestBadCandidateHardening:
    """Codelets only a bad *candidate* would produce (wrong literal in a
    numeric slot, garbage regex, ...) must execute to a well-defined
    result — the verifier then marks them inconsistent — never raise an
    unexpected exception that would surface as a server 500."""

    def test_nthocc_non_numeric_defaults_to_first(self):
        result = execute_codelet(
            'INSERT(STRING("*"), END(), ITERATIONSCOPE(LINESCOPE(), '
            'BCONDOCCURRENCE(CONTAINS(NUMBERTOKEN()), NTHOCC("zz"))))',
            "1\n2",
        )
        assert result.text == "1*\n2"

    def test_nthtoken_non_numeric_defaults_to_first(self):
        result = execute_codelet(
            'DELETE(NTHTOKEN(WORDTOKEN(), "abc"), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "foo bar",
        )
        assert result.text == " bar"

    def test_position_non_numeric_defaults_to_start(self):
        result = execute_codelet(
            'INSERT(STRING("!"), POSITION("abc"), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "ab",
        )
        assert result.text == "!ab"

    def test_endat_non_numeric_defaults_to_end(self):
        result = execute_codelet(
            'INSERT(STRING("!"), ENDAT("xyz"), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "ab",
        )
        assert result.text == "ab!"

    def test_chartoken_anchor_without_index(self):
        # Regression: this used to fall through to the token-pattern
        # regex search and anchor on the first character.
        result = execute_codelet(
            'INSERT(STRING("!"), AFTER(CHARTOKEN()), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "ab",
        )
        assert result.text == "ab!"

    def test_chartoken_anchor_with_index_clamps(self):
        result = execute_codelet(
            'INSERT(STRING("!"), AFTER(CHARTOKEN("1")), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "ab",
        )
        assert result.text == "a!b"
        result = execute_codelet(
            'INSERT(STRING("!"), AFTER(CHARTOKEN("99")), '
            "ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(ALL())))",
            "ab",
        )
        assert result.text == "ab!"

    def test_matches_name_invalid_regex_matches_nothing(self):
        ast = parse_cpp("int f(int a, int b);")
        assert match_codelet('functionDecl(matchesName("["))', ast) == []

    def test_matches_name_nested_repeat_matches_nothing_quickly(self):
        # ``(a+)+$`` backtracks exponentially on ``aaa...ab``; a C-level
        # ``re`` search holds the GIL, so no wall-clock slice could stop
        # it.  The pattern is refused before it runs.
        executor = get_executor("astmatcher")
        for length in (24, 25, 26):
            source = "int " + "a" * (length - 1) + "b;"
            started = time.monotonic()
            out = executor('decl(matchesName("(a+)+$"))', source)
            assert time.monotonic() - started < 0.5
            assert out == ""

    @pytest.mark.parametrize("pattern,name", [
        ("(a+)+$", "aa"), ("(a*)*", "f"), ("(?:a|ab)+", "ab"),
        ("((ab)+c)*", "ababc"), ("(a{2,}){2,}", "aaaa"),
        ("(x(a|bc))+", "xbc"), ("(?:(a+)b)*", "aab"), ("(a?){3}b", "ab"),
    ])
    def test_matches_name_refuses_nested_repeats(self, pattern, name):
        # Each pattern would match ``name``; refused, it matches nothing.
        assert re.search(pattern, name)
        ast = parse_cpp(f"int {name}();")
        codelet = f'functionDecl(matchesName("{pattern}"))'
        assert match_codelet(codelet, ast) == []

    @pytest.mark.parametrize("pattern,name", [
        ("a+b+", "aab"), ("(ab)+", "abab"), ("(ab)?c+", "cc"),
        ("[ab]+", "ab"), ("(?:a|b)+", "ab"), ("x(a|bc)y+", "xbcyy"),
        ("(a|bc)", "bc"),
    ])
    def test_matches_name_accepts_patterns_without_nesting(self, pattern,
                                                           name):
        ast = parse_cpp(f"int {name}();")
        codelet = f'functionDecl(matchesName("{pattern}"))'
        assert [n.name for n in match_codelet(codelet, ast)] == [name]

    def test_count_matchers_non_numeric_literal(self):
        ast = parse_cpp("int f(int a, int b);")
        assert match_codelet("functionDecl(parameterCountIs(xx))", ast) == []
        ast = parse_cpp("int g() { h(1, 2); return 0; }")
        assert match_codelet("callExpr(argumentCountIs(xx))", ast) == []


class TestExecutorFuzz:
    """Every pack ground truth must execute on arbitrary inputs without
    an unexpected exception: a domain :class:`ReproError` is acceptable
    (the verifier maps it to an ``error`` verdict), a bare ``KeyError``
    or ``TypeError`` is not."""

    INPUTS = ("", "a", "aa\nbb", " \t \n ", "x" * 200, "á é 漢", "1.5=2")

    def _sweep(self, executor, codelets):
        for codelet in codelets:
            for text in self.INPUTS:
                try:
                    observed = executor(codelet, text)
                except ReproError:
                    continue  # well-defined domain failure
                assert isinstance(observed, str), (codelet, text)

    def test_stringxform_pack_ground_truths(self):
        from repro.packs.loader import builtin_pack_root
        from repro.packs.spec import load_pack
        from repro.verify import get_executor

        spec = load_pack(builtin_pack_root() / "stringxform")
        self._sweep(
            get_executor("stringxform"),
            [case.ground_truth for case in spec.examples],
        )

    def test_textediting_suite_ground_truths(self):
        from repro.domains.textediting.queries import TEXTEDITING_QUERIES
        from repro.verify import get_executor

        cases = TEXTEDITING_QUERIES
        assert cases
        self._sweep(
            get_executor("textediting"),
            [case.ground_truth for case in cases],
        )

    def test_astmatcher_suite_ground_truths(self):
        from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES
        from repro.verify import get_executor

        sources = (
            "",
            "int x;",
            "void f() { if (1) return; }",
            "class C { public: int m(); };",
        )
        cases = ASTMATCHER_QUERIES
        assert cases
        executor = get_executor("astmatcher")
        for case in cases:
            for src in sources:
                try:
                    observed = executor(case.ground_truth, src)
                except ReproError:
                    continue
                assert isinstance(observed, str), (case.ground_truth, src)
