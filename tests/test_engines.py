"""Engine tests: DGGT (Algorithm 1) and the HISyn baseline on the toy domain."""

import pytest

from repro.baseline.hisyn import HISynEngine
from repro.core.dggt import DggtConfig, DggtEngine
from repro.errors import SynthesisTimeout
from repro.synthesis.deadline import Deadline
from repro.synthesis.problem import build_problem


def synth(domain, query, engine, **kwargs):
    return engine.synthesize(build_problem(domain, query), **kwargs)


class TestDggtBasics:
    def test_single_word_query(self, toy_domain):
        out = synth(toy_domain, "insert", DggtEngine())
        assert out.codelet == "INSERT()"
        assert out.size == 1

    def test_case_one_chain(self, toy_domain):
        out = synth(toy_domain, 'insert the string ":"', DggtEngine())
        assert out.codelet == 'INSERT(STRING(":"))'

    def test_case_two_siblings(self, toy_domain):
        out = synth(toy_domain, 'insert ":" into lines', DggtEngine())
        assert out.codelet == 'INSERT(STRING(":"), ITERATIONSCOPE(LINESCOPE()))'

    def test_unmentioned_api_included(self, toy_domain):
        # ITERATIONSCOPE is never mentioned; the path to LINESCOPE carries it.
        out = synth(toy_domain, "insert a string into lines", DggtEngine())
        assert "ITERATIONSCOPE" in out.expression.apis()

    def test_orphan_relocation(self, toy_domain):
        # "string containing numbers": "containing" is an orphan under
        # STRING and must relocate under INSERT.
        out = synth(toy_domain, "insert a string containing numbers", DggtEngine())
        assert out.stats.n_orphans == 1
        assert out.stats.n_reloc_variants >= 1
        assert "CONTAINS" in out.expression.apis()
        assert "NUMBERTOKEN" in out.expression.apis()

    def test_orig_paths_counted_without_registering(self, toy_domain):
        # "# of orig. path" counts the orphan's start-attachment paths;
        # counting must not build them or take a catalog edge number.
        problem = build_problem(toy_domain, "insert a string containing numbers")
        (orphan,) = problem.orphan_nodes()
        n_edges = problem.catalog.n_edges
        out = DggtEngine().synthesize(problem)
        assert out.stats.n_reloc_variants >= 1  # relocation placed it
        assert problem.catalog.n_edges == n_edges
        assert out.stats.n_orig_paths == problem.total_paths() + len(
            problem.start_attach_paths(orphan)
        )

    def test_stats_populated(self, toy_domain):
        out = synth(toy_domain, 'insert ":" into lines', DggtEngine())
        s = out.stats
        assert s.n_dep_edges >= 2
        assert s.n_orig_paths > 0
        assert s.n_combinations > 0
        assert s.n_valid_cgts > 0

    def test_timeout_respected(self, toy_domain):
        deadline = Deadline(1e-9)
        with pytest.raises(SynthesisTimeout):
            synth(toy_domain, 'insert ":" into lines', DggtEngine(), deadline=deadline)

    def test_number_binding(self, toy_domain):
        out = synth(toy_domain, "insert a string at position 5", DggtEngine())
        assert 'POSITION("5")' in out.codelet


class TestDggtConfigToggles:
    @pytest.mark.parametrize(
        "config",
        [
            DggtConfig(grammar_pruning=False),
            DggtConfig(size_pruning=False),
            DggtConfig(orphan_relocation=False),
            DggtConfig(grammar_pruning=False, size_pruning=False,
                       orphan_relocation=False),
        ],
    )
    def test_toggles_preserve_result(self, toy_domain, config):
        full = synth(toy_domain, "insert a string containing numbers", DggtEngine())
        ablated = synth(
            toy_domain, "insert a string containing numbers", DggtEngine(config)
        )
        assert ablated.size == full.size

    def test_grammar_pruning_reduces_merges(self, toy_domain):
        query = 'insert ":" at the start into lines'
        on = synth(toy_domain, query, DggtEngine())
        off = synth(toy_domain, query, DggtEngine(DggtConfig(grammar_pruning=False)))
        assert on.stats.pruned_by_grammar >= 0
        assert off.stats.pruned_by_grammar == 0
        assert on.codelet == off.codelet


class TestHisynBasics:
    def test_same_results_as_dggt(self, toy_domain):
        for query in (
            "insert",
            'insert the string ":"',
            'insert ":" into lines',
            "insert a string containing numbers",
            "delete numbers from lines",
            "insert a string at position 5",
        ):
            d = synth(toy_domain, query, DggtEngine())
            h = synth(toy_domain, query, HISynEngine())
            assert d.codelet == h.codelet, query

    def test_exhaustive_combination_count(self, toy_domain):
        out = synth(toy_domain, 'insert ":" into lines', HISynEngine())
        prob = build_problem(toy_domain, 'insert ":" into lines')
        expected = len(prob.root_paths)
        for edge in prob.dep_graph.edges():
            expected *= len(prob.paths_of(edge))
        assert out.stats.n_combinations == expected

    def test_hisyn_slower_or_equal_combinations(self, toy_domain):
        query = "insert a string containing numbers at the start into lines"
        d = synth(toy_domain, query, DggtEngine())
        h = synth(toy_domain, query, HISynEngine())
        assert h.stats.n_merged >= d.stats.n_merged

    def test_timeout(self, toy_domain):
        with pytest.raises(SynthesisTimeout):
            synth(
                toy_domain,
                "insert a string containing numbers into lines",
                HISynEngine(),
                deadline=Deadline(1e-9),
            )

    def test_worst_case_combinations(self, toy_domain):
        engine = HISynEngine()
        prob = build_problem(toy_domain, 'insert ":" into lines')
        assert engine.worst_case_combinations(prob) > 0


class TestObjective:
    def test_smallest_cgt_wins(self, toy_domain):
        # "delete numbers": NUMBERTOKEN directly under del_target (2 APIs)
        # beats the route through CONTAINS (4+ APIs).
        out = synth(toy_domain, "delete numbers", DggtEngine())
        assert out.codelet == "DELETE(NUMBERTOKEN())"

    def test_rank_breaks_size_ties(self, toy_domain):
        # "start" maps to START (rank 0) and STARTFROM (rank 1); both give
        # size-2 trees, so the better match wins.
        out = synth(toy_domain, "insert at the start", DggtEngine())
        assert "START()" in out.codelet
        assert "STARTFROM" not in out.codelet

    def test_binding_conflicts_rejected(self, toy_domain):
        # Two different literals cannot share one slot: the result must
        # keep both values.
        out = synth(toy_domain, 'insert ":" into lines containing "#"', DggtEngine())
        literals = set(out.expression.literals())
        assert {":", "#"} <= literals
