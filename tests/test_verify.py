"""Execution-guided verification subsystem (docs/verification.md).

Covers the example spec layer, the executor registry, the sandbox, the
re-ranking verifier, and the end-to-end pipeline/wire integration —
including the acceptance cases: deadline exhaustion falls back to the
unverified ranking, all-inconsistent keeps the order, a domain without an
executor rejects examples cleanly, and omitting examples leaves payloads
byte-identical.
"""

import json
import multiprocessing
import socket  # noqa: F401 - imported before sandboxing (see tests below)
import sys
import threading
import time

import pytest

from repro.errors import InvalidExamplesError, error_code
from repro.synthesis.deadline import Deadline
from repro.synthesis.pipeline import DEFAULT_TOP_K, Synthesizer
from repro.synthesis.stages import (
    ALL_STAGE_NAMES,
    STAGE_NAMES,
    VERIFY_STAGE_NAME,
)
from repro.verify import (
    IOExample,
    SandboxViolation,
    VerificationReport,
    get_executor,
    has_executor,
    normalize_examples,
    parse_example_arg,
    parse_examples,
    register_executor,
    run_sandboxed,
    verify_candidates,
)
from repro.verify import sandbox as sandbox_module
from repro.verify.examples import MAX_EXAMPLES, MAX_TEXT_BYTES


# ---------------------------------------------------------------------------
# Example specs
# ---------------------------------------------------------------------------


class TestParseExamples:
    def test_valid_wire_array(self):
        examples = parse_examples(
            [{"input": "aa", "output": "bb"}, {"input": "", "output": ""}]
        )
        assert examples == (IOExample("aa", "bb"), IOExample("", ""))

    def test_to_json_round_trip(self):
        ex = IOExample("a", "b")
        assert ex.to_json() == {"input": "a", "output": "b"}
        assert parse_examples([ex.to_json()]) == (ex,)

    @pytest.mark.parametrize(
        "raw",
        [
            "not a list",
            {},
            [],
            ["string entry"],
            [{"input": "a"}],
            [{"output": "b"}],
            [{"input": 1, "output": "b"}],
            [{"input": "a", "output": None}],
            [{"input": "a", "output": "b", "extra": True}],
            [{"input": "a", "output": "b"}] * (MAX_EXAMPLES + 1),
        ],
    )
    def test_rejects_malformed(self, raw):
        with pytest.raises(InvalidExamplesError):
            parse_examples(raw)

    def test_rejects_oversized_text(self):
        big = "x" * (MAX_TEXT_BYTES + 1)
        with pytest.raises(InvalidExamplesError):
            parse_examples([{"input": big, "output": "y"}])

    def test_error_code_is_stable(self):
        assert error_code(InvalidExamplesError("x")) == "invalid_examples"


class TestNormalizeExamples:
    def test_accepts_pairs_dicts_and_records(self):
        want = (IOExample("a", "b"),)
        assert normalize_examples([("a", "b")]) == want
        assert normalize_examples([["a", "b"]]) == want
        assert normalize_examples([{"input": "a", "output": "b"}]) == want
        assert normalize_examples([IOExample("a", "b")]) == want

    def test_none_and_empty_pass_through(self):
        assert normalize_examples(None) is None
        assert normalize_examples([]) is None

    def test_rejects_garbage(self):
        with pytest.raises(InvalidExamplesError):
            normalize_examples([42])


class TestParseExampleArg:
    def test_splits_on_first_unescaped_equals(self):
        assert parse_example_arg("a=b=c") == IOExample("a", "b=c")

    def test_escapes(self):
        assert parse_example_arg(r"a\nb=c\td") == IOExample("a\nb", "c\td")
        assert parse_example_arg(r"a\=b=c") == IOExample("a=b", "c")
        assert parse_example_arg(r"a\\=c") == IOExample("a\\", "c")

    def test_missing_separator_rejected(self):
        with pytest.raises(InvalidExamplesError):
            parse_example_arg("no separator here")


# ---------------------------------------------------------------------------
# Executor registry
# ---------------------------------------------------------------------------


class TestExecutorRegistry:
    def test_builtins_registered(self):
        for name in ("textediting", "stringxform", "astmatcher"):
            assert has_executor(name)
            assert callable(get_executor(name))

    def test_unknown_domain_raises_invalid_examples(self):
        with pytest.raises(InvalidExamplesError) as info:
            get_executor("no-such-domain")
        assert "no-such-domain" in str(info.value)

    def test_register_and_replace(self):
        try:
            register_executor("tmp-exec-test", lambda c, t: t)
            assert get_executor("tmp-exec-test")("X()", "in") == "in"
            register_executor("tmp-exec-test", lambda c, t: "other")
            assert get_executor("tmp-exec-test")("X()", "in") == "other"
        finally:
            from repro.verify import executors

            executors._REGISTRY.pop("tmp-exec-test", None)

    def test_textediting_count_and_select_normalization(self):
        ex = get_executor("textediting")
        assert ex("COUNT(LINETOKEN())", "a\nb") == "2"
        assert ex("PRINT(ITERATIONSCOPE(LINESCOPE()))", "a\nb") == "a\nb"

    def test_stringxform_extract_normalization(self):
        ex = get_executor("stringxform")
        assert ex("EXTRACT(DIGITS())", "a1b22") == "1\n22"
        assert ex("UPPERCASE()", "hi") == "HI"

    def test_astmatcher_kind_name_lines(self):
        ex = get_executor("astmatcher")
        out = ex("functionDecl()", "void f() {}\nvoid g() {}")
        assert out.splitlines() == ["functionDecl:f", "functionDecl:g"]


# ---------------------------------------------------------------------------
# Sandbox
# ---------------------------------------------------------------------------


class TestSandbox:
    def test_blocks_filesystem_reads(self):
        result = run_sandboxed(lambda: open("/etc/hostname").read(), 2.0)
        assert result.status == "error"
        assert isinstance(result.error, SandboxViolation)

    def test_blocks_filesystem_writes(self, tmp_path):
        target = tmp_path / "escape.txt"
        result = run_sandboxed(
            lambda: open(str(target), "w").write("pwned"), 2.0
        )
        assert result.status == "error"
        assert isinstance(result.error, SandboxViolation)
        assert not target.exists()

    def test_blocks_sockets(self):
        # socket imported at module scope: the *connection*, not the
        # import, must be what trips the sandbox.
        result = run_sandboxed(
            lambda: socket.create_connection(("127.0.0.1", 9), timeout=1),
            2.0,
        )
        assert result.status == "error"
        assert isinstance(result.error, SandboxViolation)

    def test_enforces_wall_clock_slice(self):
        started = time.monotonic()
        result = run_sandboxed(lambda: time.sleep(30), 0.2)
        elapsed = time.monotonic() - started
        assert result.status == "timeout"
        assert elapsed < 5.0

    def test_pure_computation_allowed(self):
        result = run_sandboxed(lambda: "x".join(["a", "b"]), 2.0)
        assert result.status == "ok"
        assert result.value == "axb"

    def test_outside_sandbox_unaffected(self, tmp_path):
        # The audit hook stays installed but must be inert outside a
        # sandboxed call.
        target = tmp_path / "fine.txt"
        run_sandboxed(lambda: 1, 1.0)
        target.write_text("ok")
        assert target.read_text() == "ok"

    def test_sequential_calls_reuse_one_worker(self):
        first = run_sandboxed(threading.get_ident, 2.0)
        second = run_sandboxed(threading.get_ident, 2.0)
        assert first.status == second.status == "ok"
        assert first.value == second.value
        assert first.value != threading.get_ident()

    def test_fence_holds_on_reused_worker(self):
        first = run_sandboxed(threading.get_ident, 2.0)
        seen = []

        def escape():
            seen.append(threading.get_ident())
            return open("/etc/hostname").read()

        result = run_sandboxed(escape, 2.0)
        assert first.status == "ok"
        assert seen == [first.value]
        assert result.status == "error"
        assert isinstance(result.error, SandboxViolation)

    def test_timed_out_worker_exits_and_is_not_reused(self, monkeypatch):
        monkeypatch.setattr(sandbox_module, "_idle", [])
        sleeping = threading.Event()
        sleeper = []

        def sleep():
            sleeper.append(threading.current_thread())
            sleeping.set()
            time.sleep(1.5)

        assert run_sandboxed(sleep, 0.1).status == "timeout"
        assert sleeping.wait(5.0)
        result = run_sandboxed(threading.current_thread, 2.0)
        assert result.status == "ok"
        assert result.elapsed_seconds < 0.5  # the sleeper still runs
        assert result.value is not sleeper[0]
        sleeper[0].join(5.0)
        assert not sleeper[0].is_alive()
        assert result.value.name == "repro-verify-sandbox"
        assert result.value.is_alive()  # idle, waiting for work
        assert len(sandbox_module._idle) == 1

    def test_forked_child_starts_its_own_workers(self):
        assert run_sandboxed(lambda: 1, 2.0).status == "ok"
        assert sandbox_module._idle  # a worker the child would inherit
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_sandboxed_in_child, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(30.0)
            assert receiver.recv() == ("ok", 42)
        finally:
            child.join(10.0)
        assert child.exitcode == 0

    def test_concurrent_callers_share_a_bounded_free_list(self, monkeypatch):
        monkeypatch.setattr(sandbox_module, "_idle", [])
        wrong = []

        def caller(k):
            for i in range(100):
                result = run_sandboxed(lambda i=i: (k, i), 5.0)
                if result.status != "ok" or result.value != (k, i):
                    wrong.append((k, i, result))

        callers = [threading.Thread(target=caller, args=(k,))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert wrong == []
        assert 1 <= len(sandbox_module._idle) <= 8


def _sandboxed_in_child(sender):
    result = run_sandboxed(lambda: 6 * 7, 5.0)
    sender.send((result.status, result.value))
    sender.close()


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


def _fake_executor(table):
    def executor(codelet, input_text):
        value = table[codelet]
        if isinstance(value, Exception):
            raise value
        return value

    return executor


EXAMPLES = (IOExample("in", "right"),)


class TestVerifyCandidates:
    def test_consistent_candidate_promoted(self):
        executor = _fake_executor({"A()": "wrong", "B()": "right"})
        report = verify_candidates(
            executor, [(1, "A()"), (2, "B()")], EXAMPLES,
            Deadline.unlimited(),
        )
        assert report.status == "verified"
        assert report.order == (2, 1)
        assert report.winner_rank == 2
        assert report.reranked is True
        assert report.consistent_ranks == (2,)
        assert report.verdict_for(1).verdict == "inconsistent"
        assert report.verdict_for(1).detail is not None

    def test_all_inconsistent_keeps_original_order(self):
        executor = _fake_executor({"A()": "no", "B()": "also no"})
        report = verify_candidates(
            executor, [(1, "A()"), (2, "B()")], EXAMPLES,
            Deadline.unlimited(),
        )
        assert report.status == "verified"
        assert report.order == (1, 2)
        assert report.reranked is False
        assert all(v.verdict == "inconsistent" for v in report.verdicts)

    def test_ties_keep_cost_order(self):
        executor = _fake_executor(
            {"A()": "right", "B()": "right", "C()": "no"}
        )
        report = verify_candidates(
            executor, [(1, "A()"), (2, "B()"), (3, "C()")], EXAMPLES,
            Deadline.unlimited(),
        )
        assert report.order == (1, 2, 3)
        assert report.reranked is False

    def test_raising_candidate_is_error_not_crash(self):
        executor = _fake_executor(
            {"A()": ValueError("boom"), "B()": "right"}
        )
        report = verify_candidates(
            executor, [(1, "A()"), (2, "B()")], EXAMPLES,
            Deadline.unlimited(),
        )
        assert report.verdict_for(1).verdict == "error"
        assert "boom" in report.verdict_for(1).detail
        assert report.winner_rank == 2

    def test_non_string_output_is_error(self):
        report = verify_candidates(
            lambda c, t: 42, [(1, "A()")], EXAMPLES, Deadline.unlimited()
        )
        assert report.verdict_for(1).verdict == "error"

    def test_multi_example_partial_pass_is_inconsistent(self):
        examples = (IOExample("a", "1"), IOExample("b", "2"))
        report = verify_candidates(
            lambda c, t: "1" if t == "a" else "x",
            [(1, "A()")], examples, Deadline.unlimited(),
        )
        verdict = report.verdict_for(1)
        assert verdict.verdict == "inconsistent"
        assert verdict.examples_passed == 1
        assert verdict.examples_total == 2

    def test_expired_deadline_falls_back_to_unverified(self):
        executor = _fake_executor({"A()": "wrong", "B()": "right"})
        report = verify_candidates(
            executor, [(1, "A()"), (2, "B()")], EXAMPLES, Deadline(0.0)
        )
        assert report.status == "deadline_exhausted"
        assert report.order == (1, 2)  # original order, not re-ranked
        assert report.winner_rank == 1
        assert report.reranked is False
        assert all(v.verdict == "skipped" for v in report.verdicts)
        assert any("deadline exhausted" in note for note in report.notes)

    def test_slow_candidate_cannot_exceed_its_slice(self):
        def slow(codelet, text):
            if codelet == "SLOW()":
                time.sleep(30)
            return "right"

        started = time.monotonic()
        report = verify_candidates(
            slow, [(1, "SLOW()"), (2, "OK()")], EXAMPLES, Deadline(1.0)
        )
        elapsed = time.monotonic() - started
        assert elapsed < 10.0  # nowhere near the 30s sleep
        assert report.verdict_for(1).verdict == "timeout"

    def test_report_json_shape(self):
        executor = _fake_executor({"A()": "right"})
        report = verify_candidates(
            executor, [(1, "A()")], EXAMPLES, Deadline.unlimited()
        )
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["status"] == "verified"
        assert payload["order"] == [1]
        assert payload["verdicts"][0]["verdict"] == "consistent"
        assert payload["verdicts"][0]["examples_passed"] == 1
        assert "notes" not in payload


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------


class TestPipelineIntegration:
    def test_examples_rerank_ambiguous_textediting_query(self, textediting):
        synth = Synthesizer(textediting)
        query = 'place "-" at the start of each line'
        plain = synth.synthesize(query)
        verified = synth.synthesize(
            query, examples=[("aa\nbb", "-aa\n-bb")]
        )
        assert plain.codelet != verified.codelet
        ex = get_executor("textediting")
        assert ex(verified.codelet, "aa\nbb") == "-aa\n-bb"
        report = verified.verification
        assert isinstance(report, VerificationReport)
        assert report.status == "verified"
        assert report.reranked is True
        # The candidate list is reordered to match the report.
        assert verified.candidates[0].rank == report.winner_rank
        assert verified.candidates[0].codelet == verified.codelet

    def test_examples_rerank_stringxform_swap(self, stringxform):
        synth = Synthesizer(stringxform)
        out = synth.synthesize(
            'substitute "y" for "x"', examples=[("axbx", "ayby")]
        )
        assert out.codelet == 'REPLACEALL(LITERAL("x"), DSTTEXT("y"))'
        assert out.verification.reranked is True

    def test_consistent_rank1_not_reranked(self, stringxform):
        synth = Synthesizer(stringxform)
        out = synth.synthesize(
            'replace "x" with "y"', examples=[("axbx", "ayby")]
        )
        assert out.verification.winner_rank == 1
        assert out.verification.reranked is False

    def test_no_examples_payload_byte_identical(self, stringxform):
        synth = Synthesizer(stringxform, cache_outcomes=False)
        query = "uppercase everything"
        baseline = json.dumps(synth.synthesize(query).to_json())
        again = json.dumps(synth.synthesize(query).to_json())
        # Ignore the timing field: everything else must match exactly.
        a, b = json.loads(baseline), json.loads(again)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b
        assert "candidates" not in a and "verification" not in a

    def test_domain_without_executor_rejects_before_synthesis(
        self, toy_domain
    ):
        synth = Synthesizer(toy_domain)
        with pytest.raises(InvalidExamplesError):
            synth.synthesize(
                'insert ":" into lines', examples=[("a", "b")]
            )

    def test_candidates_without_examples(self, textediting):
        synth = Synthesizer(textediting)
        out = synth.synthesize(
            'place "-" at the start of each line', candidates=3
        )
        assert out.verification is None
        assert out.candidates is not None
        assert 1 <= len(out.candidates) <= 3
        assert [c.rank for c in out.candidates] == list(
            range(1, len(out.candidates) + 1)
        )
        assert out.candidates[0].codelet == out.codelet
        for cand in out.candidates:
            assert 0.0 < cand.score <= 1.0

    def test_verify_stage_span_recorded(self, stringxform):
        synth = Synthesizer(stringxform)
        out = synth.synthesize(
            'substitute "y" for "x"',
            examples=[("axbx", "ayby")],
        )
        stages = [span.stage for span in out.trace.spans]
        assert stages == list(STAGE_NAMES) + [VERIFY_STAGE_NAME]
        verify_span = out.trace.spans[-1]
        assert verify_span.status == "ok"

    def test_stage_vocabulary(self):
        assert VERIFY_STAGE_NAME == "verify"
        assert ALL_STAGE_NAMES == STAGE_NAMES + (VERIFY_STAGE_NAME,)
        assert len(STAGE_NAMES) == 6  # the Fig. 3 pipeline is untouched

    def test_outcome_cache_bypassed_for_examples(self, stringxform):
        synth = Synthesizer(stringxform, cache_outcomes=True)
        query = 'substitute "q" for "z"'
        synth.synthesize(query)  # warm the outcome cache
        out = synth.synthesize(query, examples=[("azbz", "aqbq")])
        # A cache replay would carry no verification payload.
        assert out.verification is not None

    def test_deadline_exhaustion_mid_verification(
        self, stringxform, monkeypatch
    ):
        from repro.verify import executors as executors_mod
        from repro.verify import verifier as verifier_mod

        real = get_executor("stringxform")

        def slow_executor(codelet, text):
            time.sleep(0.4)
            return real(codelet, text)

        monkeypatch.setitem(
            executors_mod._REGISTRY,
            "stringxform",
            (slow_executor, None),
        )
        # Fair-share slices decay geometrically and normally stay above
        # the 2ms exhaustion floor; raise the floor so the slow first
        # candidate drives the remaining budget below it.
        monkeypatch.setattr(verifier_mod, "_MIN_SLICE", 0.3)
        synth = Synthesizer(stringxform, cache_outcomes=False)
        query = 'substitute "y" for "x"'
        plain = synth.synthesize(query).codelet
        # Warm the caches so synthesis itself is fast, then give the
        # request a budget verification cannot finish inside.
        out = synth.synthesize(
            query,
            timeout_seconds=0.45,
            examples=[("axbx", "ayby")],
        )
        report = out.verification
        assert report.status == "deadline_exhausted"
        assert out.codelet == plain  # unverified ranking kept
        assert any("deadline exhausted" in n for n in report.notes)
        assert out.trace.spans[-1].stage == VERIFY_STAGE_NAME
        assert out.trace.spans[-1].status == "exhausted"

    def test_pathological_candidate_cannot_touch_filesystem(
        self, stringxform, monkeypatch, tmp_path
    ):
        from repro.verify import executors as executors_mod

        target = tmp_path / "escape.txt"
        real = get_executor("stringxform")

        def evil_executor(codelet, text):
            open(str(target), "w").write("pwned")
            return real(codelet, text)

        monkeypatch.setitem(
            executors_mod._REGISTRY,
            "stringxform",
            (evil_executor, None),
        )
        synth = Synthesizer(stringxform, cache_outcomes=False)
        out = synth.synthesize(
            'substitute "y" for "x"', examples=[("axbx", "ayby")]
        )
        assert not target.exists()
        assert all(
            v.verdict == "error" for v in out.verification.verdicts
        )
        # Verification failed for every candidate: the cost ranking wins.
        assert out.verification.reranked is False

    def test_batch_entries_with_examples(self, stringxform):
        synth = Synthesizer(stringxform)
        items = synth.synthesize_many(
            [
                {
                    "query": 'substitute "y" for "x"',
                    "examples": [{"input": "axbx", "output": "ayby"}],
                },
                "uppercase everything",
            ]
        )
        assert items[0].ok and items[1].ok
        assert items[0].outcome.verification.reranked is True
        assert items[1].outcome.verification is None
        payload = items[0].to_json()
        assert payload["verification"]["status"] == "verified"

    def test_batch_entry_validation(self, stringxform):
        from repro.errors import InvalidRequestError

        synth = Synthesizer(stringxform)
        with pytest.raises(InvalidRequestError):
            synth.synthesize_many([{"examples": []}])
        with pytest.raises(InvalidRequestError):
            synth.synthesize_many([42])

    def test_default_top_k(self):
        assert DEFAULT_TOP_K == 4


# ---------------------------------------------------------------------------
# Wire protocol / service
# ---------------------------------------------------------------------------


class TestWireIntegration:
    @pytest.fixture(scope="class")
    def service(self):
        from repro.server.service import ServerConfig, SynthesisService

        svc = SynthesisService(
            ServerConfig(domains=("stringxform", "textediting"))
        )
        yield svc
        svc.close()

    def test_examples_over_the_wire(self, service):
        status, payload = service.handle_payload({
            "query": 'substitute "y" for "x"',
            "domain": "stringxform",
            "examples": [{"input": "axbx", "output": "ayby"}],
            "include_trace": True,
        })
        assert status == 200
        assert payload["codelet"] == (
            'REPLACEALL(LITERAL("x"), DSTTEXT("y"))'
        )
        assert payload["verification"]["reranked"] is True
        assert [s["stage"] for s in payload["trace"]["spans"]][-1] == (
            VERIFY_STAGE_NAME
        )

    def test_malformed_examples_rejected_400(self, service):
        status, payload = service.handle_payload({
            "query": "x",
            "examples": [{"input": 1, "output": "y"}],
        })
        assert status == 400
        assert payload["error"]["code"] == "invalid_examples"

    def test_no_examples_response_unchanged(self, service):
        status, payload = service.handle_payload({
            "query": "uppercase everything",
            "domain": "stringxform",
        })
        assert status == 200
        assert "verification" not in payload
        assert "candidates" not in payload

    def test_stats_verification_section(self, service):
        stats = service.stats()
        section = stats["verification"]
        assert section["requests_with_examples"] >= 1
        assert section["verified"] >= 1
        assert section["reranked"] >= 1

    def test_http_status_mapping(self):
        from repro.server.protocol import http_status

        assert http_status("invalid_examples") == 400

    def test_client_renders_examples_to_wire(self):
        from repro.client import _examples_to_wire

        assert _examples_to_wire([("a", "b")]) == [
            {"input": "a", "output": "b"}
        ]


# ---------------------------------------------------------------------------
# Pack fixtures as verification fixtures
# ---------------------------------------------------------------------------


class TestPackFixtures:
    def test_stringxform_pack_fixtures_replay(self, stringxform):
        from repro.packs.loader import builtin_pack_root
        from repro.packs.spec import load_pack

        spec = load_pack(builtin_pack_root() / "stringxform")
        executor = get_executor("stringxform")
        fixtures = [
            case for case in spec.examples
            if case.example_input is not None
        ]
        assert len(fixtures) >= 5
        for case in fixtures:
            observed = executor(case.ground_truth, case.example_input)
            assert observed == case.example_output, case.case_id

    def test_pack_validate_catches_bad_fixture(self, tmp_path):
        import shutil

        from repro.packs.loader import builtin_pack_root
        from repro.packs.spec import validate_pack

        root = tmp_path / "pack"
        shutil.copytree(
            str(builtin_pack_root() / "stringxform"), str(root)
        )
        examples = root / "examples.jsonl"
        lines = examples.read_text(encoding="utf-8").splitlines()
        bad = json.loads(lines[0])
        bad["input"], bad["output"] = "a1b2", "WRONG"
        lines[0] = json.dumps(bad)
        examples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, issues = validate_pack(root)
        assert any(
            "does not reproduce its output" in str(issue)
            for issue in issues
        )
