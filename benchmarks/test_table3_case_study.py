"""Table III reproduction: detailed DGGT results on hard cases.

The paper picks 4 complex queries (5-7 dependency edges, hundreds of paths,
1e5-1e10 combinations) and reports how orphan relocation shrinks the path
set and how grammar-/size-based pruning remove >90% of combinations.  We
pick the highest-complexity TextEditing cases and report the same columns.
"""

from benchmarks.conftest import BENCH_TIMEOUT, _domain
from repro.eval.harness import run_case
from repro.eval.tables import render_table3, table3_row
from repro.synthesis.pipeline import Synthesizer


def _hard_cases(cases, n=4):
    ranked = sorted(cases, key=lambda c: (-c.complexity, c.case_id))
    picked, seen_families = [], set()
    for case in ranked:
        if case.family in seen_families:
            continue
        seen_families.add(case.family)
        picked.append(case)
        if len(picked) == n:
            break
    return picked


def test_table3(te_cases, benchmark):
    hard = _hard_cases(te_cases)
    # One fresh domain per engine: neither engine is timed on caches the
    # other (or an earlier bench) filled.
    dggt = Synthesizer(_domain("textediting"), engine="dggt")
    hisyn = Synthesizer(_domain("textediting"), engine="hisyn")

    def run():
        rows = []
        for case in hard:
            h = run_case(hisyn, case, BENCH_TIMEOUT)
            d = run_case(dggt, case, BENCH_TIMEOUT)
            row = table3_row(h, d)
            if row is not None:
                rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table3(rows))
    print(
        "paper (Table III): 4-7 dep edges, 388-880 paths, 2.9e5-1.3e10 "
        "combinations; orphan relocation cuts paths to 62-179; grammar+size "
        "pruning remove >90% of combinations; speedups 1887-8186x"
    )

    assert rows, "no instrumented rows produced"
    for row in rows:
        # Shape: the exhaustive baseline faces far more combinations than
        # DGGT materializes after pruning.  (A zero baseline counter means
        # it timed out with its counters unrecorded — dominated anyway.)
        if row.hisyn_combinations:
            assert row.hisyn_combinations > row.remaining
        assert row.n_dep_edges >= 4
        assert row.speedup > 1


def test_pruning_removes_most_combinations(te_cases, benchmark):
    """Sec. VII-B.3: pruning avoids the bulk of sibling combinations on
    queries where conflicts exist."""
    synth = Synthesizer(_domain("textediting"), engine="dggt")

    def run():
        totals = dict(combos=0, pruned=0)
        for case in _hard_cases(te_cases, n=6):
            result = run_case(synth, case, BENCH_TIMEOUT)
            if result.stats is None:
                continue
            totals["combos"] += result.stats.n_combinations
            totals["pruned"] += (
                result.stats.pruned_by_grammar + result.stats.pruned_by_size
            )
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nsibling combinations={totals['combos']} pruned={totals['pruned']}")
    assert totals["combos"] > 0
