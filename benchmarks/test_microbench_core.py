"""Micro-benchmarks of the pipeline stages (pytest-benchmark proper).

Not a paper table — these track the per-stage costs (parse/prune, Step-3
matching, Step-4 path search, full DGGT query) so regressions in any stage
are visible independently of the dataset sweeps.
"""


from repro.grammar.interning import interner_for
from repro.grammar.paths import find_paths_between_apis
from repro.nlp.parser import parse_query
from repro.nlp.pruning import prune_query_graph
from repro.synthesis.pipeline import Synthesizer

QUERY = 'append ":" in every line containing numerals'


def _forget_sources(graph):
    """Drop the interner's per-source search memos (distances, sorted
    predecessor rows, shortest-path DAG), so every round times a search
    from a source never searched before."""
    interner = interner_for(graph)
    interner._dist_memo.clear()
    interner._preds_memo.clear()
    interner.dag_slot = None


def test_bench_parse(benchmark, textediting):
    benchmark(parse_query, QUERY)


def test_bench_prune(benchmark, textediting):
    graph = parse_query(QUERY)
    benchmark(
        lambda: prune_query_graph(graph, textediting.prune_config)
    )


def test_bench_word2api(benchmark, textediting):
    matcher = textediting.matcher

    def match():
        matcher._cache.clear()
        return matcher.candidates("line")

    benchmark(match)


def test_bench_path_search_textediting(benchmark, textediting):
    graph = textediting.graph

    def search():
        _forget_sources(graph)
        return find_paths_between_apis(
            graph, "INSERT", "NUMBERTOKEN", textediting.path_limits
        )

    result = benchmark(search)
    assert result


def test_bench_path_search_astmatcher(benchmark, astmatcher):
    graph = astmatcher.graph

    def search():
        _forget_sources(graph)
        return find_paths_between_apis(
            graph, "cxxConstructExpr", "hasName", astmatcher.path_limits
        )

    result = benchmark(search)
    assert result


def test_bench_dggt_query_textediting(benchmark, textediting):
    synth = Synthesizer(textediting, engine="dggt", cache_outcomes=False)
    out = benchmark(synth.synthesize, QUERY)
    assert out.codelet.startswith("INSERT(")


def test_bench_dggt_query_astmatcher(benchmark, astmatcher):
    synth = Synthesizer(astmatcher, engine="dggt", cache_outcomes=False)
    out = benchmark.pedantic(
        synth.synthesize,
        args=("find virtual methods",),
        rounds=3,
        iterations=1,
    )
    assert out.codelet == "cxxMethodDecl(isVirtual())"


def test_bench_hisyn_query_textediting(benchmark, textediting):
    synth = Synthesizer(textediting, engine="hisyn", cache_outcomes=False)
    out = benchmark.pedantic(
        synth.synthesize, args=(QUERY,), rounds=3, iterations=1
    )
    assert out.codelet.startswith("INSERT(")
