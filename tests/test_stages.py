"""The staged pipeline: span recording, timeout attribution, aggregation.

The refactor's contract is "same behaviour, now observable": the six Fig. 3
stages run under :func:`run_stage` spans, cooperative timeouts name the
stage they fired in (surviving the process-pool pipe), and the serving
layer aggregates spans into p50/p99 windows.  Byte-identical-output
equivalence lives in test_equivalence_property.py; these tests pin the
tracing machinery itself.
"""

import pickle

import pytest

from repro import Synthesizer, SynthesisTimeout, load_domain
from repro.domains.textediting import build_domain as build_textediting
from repro.errors import InvalidRequestError, SynthesisError, error_code
from repro.synthesis.deadline import Deadline
from repro.synthesis.pipeline import make_engine
from repro.synthesis.problem import build_problem
from repro.synthesis.stages import (
    ENGINE_STAGE_NAMES,
    FRONT_END_STAGE_NAMES,
    STAGE_NAMES,
    Stage,
    StageLatencyAggregator,
    StageSpan,
    SynthesisContext,
    Trace,
    run_front_end,
    run_stage,
)

QUERY = "print every line"


def fresh_synth(**kwargs):
    return Synthesizer(build_textediting(fresh=True), **kwargs)


# ---------------------------------------------------------------------------
# Span recording on the happy path
# ---------------------------------------------------------------------------


class TestSpans:
    def test_stage_names_partition(self):
        assert FRONT_END_STAGE_NAMES + ENGINE_STAGE_NAMES == STAGE_NAMES
        assert STAGE_NAMES == (
            "parse", "prune", "word_to_api", "edge_to_path", "merge",
            "codegen",
        )

    @pytest.mark.parametrize("engine", ["dggt", "hisyn"])
    def test_all_six_stages_in_order(self, engine):
        out = fresh_synth(engine=engine).synthesize(
            QUERY, collect_trace=True
        )
        trace = out.trace
        assert trace is not None and not trace.cache_hit
        assert [s.stage for s in trace.spans] == list(STAGE_NAMES)
        assert all(s.status == "ok" for s in trace.spans)
        assert all(s.elapsed_seconds >= 0.0 for s in trace.spans)

    def test_tracing_off_by_default(self):
        out = fresh_synth().synthesize(QUERY)
        assert out.trace is None

    def test_synthesizer_trace_flag_sets_default(self):
        out = fresh_synth(trace=True).synthesize(QUERY)
        assert out.trace is not None
        assert out.trace.span("merge") is not None

    def test_merge_span_carries_counter_deltas(self):
        out = fresh_synth().synthesize(QUERY, collect_trace=True)
        merge = out.trace.span("merge")
        assert merge.counters["dep_edges"] == out.stats.n_dep_edges
        assert merge.counters["merged"] == out.stats.n_merged
        # Front-end stages touch no Table III counters.
        assert out.trace.span("parse").counters == {}

    def test_deadline_remaining_recorded(self):
        out = fresh_synth().synthesize(
            QUERY, timeout_seconds=30.0, collect_trace=True
        )
        for span in out.trace.spans:
            assert 0.0 <= span.deadline_remaining_seconds <= 30.0
        # Unlimited deadline -> remaining is None.
        out = fresh_synth().synthesize(
            QUERY, timeout_seconds=None, collect_trace=True
        )
        assert all(
            s.deadline_remaining_seconds is None for s in out.trace.spans
        )

    def test_trace_helpers(self):
        trace = Trace(spans=[
            StageSpan("parse", 0.25),
            StageSpan("merge", 1.0),
            StageSpan("merge", 0.5),
        ])
        assert trace.span("merge").elapsed_seconds == 0.5  # last span wins
        assert trace.span("codegen") is None
        assert trace.stage_seconds() == {"parse": 0.25, "merge": 1.5}
        assert trace.total_seconds == 1.75
        assert trace.timed_out_stage is None

    def test_trace_json_shape(self):
        out = fresh_synth().synthesize(QUERY, collect_trace=True)
        payload = out.trace.to_json()
        assert payload["cache_hit"] is False
        assert payload["total_ms"] > 0
        assert [s["stage"] for s in payload["spans"]] == list(STAGE_NAMES)
        for span in payload["spans"]:
            assert set(span) == {
                "stage", "elapsed_ms", "deadline_remaining_ms", "status",
                "counters",
            }


# ---------------------------------------------------------------------------
# Outcome-cache interaction
# ---------------------------------------------------------------------------


class TestCacheHits:
    def test_cache_hit_trace_is_empty(self):
        synth = fresh_synth()
        first = synth.synthesize(QUERY, collect_trace=True)
        second = synth.synthesize(QUERY, collect_trace=True)
        assert not first.trace.cache_hit
        assert second.trace.cache_hit
        assert second.trace.spans == []
        assert second.codelet == first.codelet

    def test_cache_hit_without_tracing_has_no_trace(self):
        synth = fresh_synth()
        synth.synthesize(QUERY, collect_trace=True)
        replay = synth.synthesize(QUERY)
        # The cached outcome must not leak the first call's trace.
        assert replay.trace is None


# ---------------------------------------------------------------------------
# Timeout attribution (the deadline-coverage satellite)
# ---------------------------------------------------------------------------


class TestTimeoutAttribution:
    @pytest.mark.parametrize("engine", ["dggt", "hisyn"])
    def test_zero_budget_names_parse_stage(self, engine):
        with pytest.raises(SynthesisTimeout) as err:
            fresh_synth(engine=engine).synthesize(
                QUERY, timeout_seconds=0, collect_trace=True
            )
        assert err.value.stage == "parse"
        assert err.value.trace.timed_out_stage == "parse"
        [span] = err.value.trace.spans
        assert (span.stage, span.status) == ("parse", "timeout")

    def test_zero_budget_names_stage_without_tracing(self):
        with pytest.raises(SynthesisTimeout) as err:
            fresh_synth().synthesize(QUERY, timeout_seconds=0)
        assert err.value.stage == "parse"
        assert getattr(err.value, "trace", None) is None

    @pytest.mark.parametrize("engine", ["dggt", "hisyn"])
    def test_expired_deadline_at_engine_names_merge(self, engine):
        domain = build_textediting(fresh=True)
        problem = build_problem(domain, QUERY)
        ctx = SynthesisContext(
            query=QUERY,
            domain=domain,
            deadline=Deadline(0),
            trace=Trace(),
        )
        with pytest.raises(SynthesisTimeout) as err:
            make_engine(engine).synthesize(problem, ctx=ctx)
        assert err.value.stage == "merge"
        assert err.value.trace.timed_out_stage == "merge"

    def test_timeout_inside_a_stage_is_attributed_to_it(self):
        class Boom(Stage):
            name = "edge_to_path"

            def run(self, ctx, value):
                raise SynthesisTimeout(1.0, 2.0)

        ctx = SynthesisContext(
            query=QUERY,
            domain=None,
            deadline=Deadline.unlimited(),
            trace=Trace(),
        )
        with pytest.raises(SynthesisTimeout) as err:
            run_stage(ctx, Boom(), None)
        assert err.value.stage == "edge_to_path"
        assert ctx.trace.timed_out_stage == "edge_to_path"

    def test_front_end_error_carries_trace(self):
        with pytest.raises(SynthesisError) as err:
            fresh_synth().synthesize("zzz qqq xxx", collect_trace=True)
        trace = err.value.trace
        assert trace.span("word_to_api").status == "error"
        assert trace.timed_out_stage is None

    @pytest.mark.parametrize(
        "max_workers", [1, 2], ids=["serial", "process"]
    )
    def test_batch_timeout_names_stage(self, max_workers):
        synth = Synthesizer(load_domain("textediting"))
        [item] = synth.synthesize_many(
            [QUERY],
            timeout_seconds_each=0,
            max_workers=max_workers,
            collect_trace=True,
        )
        assert item.status == "timeout"
        assert item.error.stage in FRONT_END_STAGE_NAMES
        assert item.trace.timed_out_stage == item.error.stage
        payload = item.to_json(include_trace=True)
        assert payload["error"]["stage"] == item.error.stage
        assert payload["trace"]["spans"][-1]["status"] == "timeout"

    def test_timeout_attributes_survive_pickling(self):
        exc = SynthesisTimeout(1.0, 1.5)
        exc.stage = "merge"
        exc.trace = Trace(spans=[StageSpan("merge", 1.5, status="timeout")])
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.stage == "merge"
        assert clone.trace.timed_out_stage == "merge"

    def test_trace_pickles(self):
        out = fresh_synth().synthesize(QUERY, collect_trace=True)
        clone = pickle.loads(pickle.dumps(out.trace))
        assert [s.stage for s in clone.spans] == list(STAGE_NAMES)


# ---------------------------------------------------------------------------
# The process fan-out carries traces across the worker pipe
# ---------------------------------------------------------------------------


class TestProcessBackendTraces:
    def test_ok_items_carry_full_traces(self):
        # Pool workers may be forked from this process and inherit the
        # registry domain's warm outcome cache; empty it so every query
        # is a deterministic miss with all six stages on record.
        load_domain("textediting").path_cache.clear()
        synth = Synthesizer(load_domain("textediting"))
        items = synth.synthesize_many(
            [QUERY, "delete every word that contains numbers"],
            max_workers=2,
            collect_trace=True,
        )
        for item in items:
            assert item.ok
            assert [s.stage for s in item.trace.spans] == list(STAGE_NAMES)

    def test_traces_off_by_default(self):
        synth = Synthesizer(load_domain("textediting"))
        [item] = synth.synthesize_many([QUERY], max_workers=2)
        assert item.trace is None


# ---------------------------------------------------------------------------
# run_front_end / artifacts
# ---------------------------------------------------------------------------


class TestFrontEnd:
    def test_run_front_end_builds_problem(self):
        domain = build_textediting(fresh=True)
        ctx = SynthesisContext(
            query=QUERY, domain=domain, deadline=Deadline.unlimited()
        )
        problem = run_front_end(ctx)
        reference = build_problem(domain, QUERY)
        assert problem.dep_graph.describe() == reference.dep_graph.describe()
        assert ctx.artifacts == {}  # keep_artifacts off by default

    def test_keep_artifacts_retains_stage_outputs(self):
        domain = build_textediting(fresh=True)
        ctx = SynthesisContext(
            query=QUERY,
            domain=domain,
            deadline=Deadline.unlimited(),
            keep_artifacts=True,
        )
        problem = run_front_end(ctx)
        assert set(ctx.artifacts) == set(FRONT_END_STAGE_NAMES)
        assert ctx.artifacts["edge_to_path"] is problem
        assert "print" in ctx.artifacts["parse"].describe()

    def test_explain_reports_stage_timings(self):
        from repro.synthesis.explain import explain_query

        text = explain_query(build_textediting(fresh=True), QUERY)
        assert "Per-stage timing" in text
        for stage in STAGE_NAMES:
            assert f"  {stage}: " in text


# ---------------------------------------------------------------------------
# invalid_request wire code (satellite bugfix)
# ---------------------------------------------------------------------------


class TestInvalidRequest:
    def test_unknown_engine(self):
        with pytest.raises(InvalidRequestError, match="unknown engine"):
            make_engine("nope")
        try:
            make_engine("nope")
        except InvalidRequestError as exc:
            assert error_code(exc) == "invalid_request"


# ---------------------------------------------------------------------------
# StageLatencyAggregator (GET /stats)
# ---------------------------------------------------------------------------


class TestAggregator:
    def test_empty_snapshot(self):
        agg = StageLatencyAggregator()
        snap = agg.snapshot()
        assert snap["observed"] == 0
        assert snap["cache_hits"] == 0
        assert snap["stages"] == {}

    def test_observe_none_is_noop(self):
        agg = StageLatencyAggregator()
        agg.observe(None)
        assert agg.snapshot()["observed"] == 0

    def test_percentiles_over_known_samples(self):
        agg = StageLatencyAggregator()
        for ms in range(1, 101):
            agg.observe(Trace(spans=[StageSpan("merge", ms / 1000.0)]))
        merge = agg.snapshot()["stages"]["merge"]
        assert merge["count"] == 100
        assert merge["mean_ms"] == pytest.approx(50.5)
        assert merge["p50_ms"] == pytest.approx(51.0)
        assert merge["p99_ms"] == pytest.approx(100.0)

    def test_cache_hits_counted(self):
        agg = StageLatencyAggregator()
        agg.observe(Trace(cache_hit=True))
        agg.observe(Trace(spans=[StageSpan("parse", 0.001)]))
        snap = agg.snapshot()
        assert snap["observed"] == 2
        assert snap["cache_hits"] == 1
        assert "merge" not in snap["stages"]

    def test_window_bounds_percentile_samples(self):
        agg = StageLatencyAggregator(window=4)
        # Old slow samples age out of the percentile window...
        for _ in range(4):
            agg.observe(Trace(spans=[StageSpan("merge", 1.0)]))
        for _ in range(4):
            agg.observe(Trace(spans=[StageSpan("merge", 0.002)]))
        merge = agg.snapshot()["stages"]["merge"]
        assert merge["p99_ms"] == pytest.approx(2.0)
        # ...but count and mean stay cumulative.
        assert merge["count"] == 8

    def test_stage_order_follows_pipeline(self):
        agg = StageLatencyAggregator()
        trace = Trace(spans=[
            StageSpan(stage, 0.001) for stage in reversed(STAGE_NAMES)
        ])
        agg.observe(trace)
        assert list(agg.snapshot()["stages"]) == list(STAGE_NAMES)


# ---------------------------------------------------------------------------
# JSON payload integration
# ---------------------------------------------------------------------------


class TestPayloads:
    def test_outcome_to_json_trace_opt_in(self):
        out = fresh_synth().synthesize(QUERY, collect_trace=True)
        assert "trace" not in out.to_json()
        payload = out.to_json(include_trace=True)
        assert payload["trace"]["cache_hit"] is False
        # include_trace on an untraced outcome adds nothing.
        bare = fresh_synth().synthesize(QUERY)
        assert "trace" not in bare.to_json(include_trace=True)

    def test_batch_item_to_json_trace_opt_in(self):
        synth = fresh_synth()
        [item] = synth.synthesize_many([QUERY], collect_trace=True)
        default = item.to_json()
        assert "trace" not in default  # pinned legacy schema
        traced = item.to_json(include_trace=True)
        assert [s["stage"] for s in traced["trace"]["spans"]] == list(
            STAGE_NAMES
        )
