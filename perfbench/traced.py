"""Traced replicas of the request path, built from each layer's public
functions so every layer call sits inside a span recorded here.

:func:`synthesize` mirrors ``Synthesizer.synthesize`` (the six Fig. 3
stages, then candidate ranking and verification when examples are
given); :class:`ServeReplay` mirrors one ``POST /synthesize`` of the
HTTP service in process (decode, admission, outcome cache, the stages,
encode).  The workloads compare every codelet produced here with the
untraced run's, so a replica that drifts from the real path fails the
run instead of skewing the attribution.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Set

from repro.core.expression import cgt_to_expression
from repro.errors import SynthesisError
from repro.nlp.parser import parse_query
from repro.nlp.pruning import prune_query_graph
from repro.synthesis.deadline import Deadline
from repro.synthesis.pipeline import DEFAULT_TOP_K, BatchItem
from repro.synthesis.problem import (
    SynthesisProblem,
    build_candidates,
    drop_candidateless,
)
from repro.synthesis.ranking import alternative_outcomes, outcomes_to_candidates
from repro.synthesis.result import SynthesisOutcome, SynthesisStats
from repro.verify.verifier import verify_candidates

from common import Tracer

#: Cache layers of ``repro.grammar.path_cache.PathCache``.
CACHE_LAYERS = ("paths", "conflicts", "sizes", "merge", "outcomes")


def cache_counters(domains) -> Dict[str, int]:
    """Summed hits/misses/evictions per cache layer over ``domains``."""
    out: Dict[str, int] = {}
    for domain in domains:
        cache = domain.path_cache
        for layer in CACHE_LAYERS:
            lru = cache.layer(layer)
            for field in ("hits", "misses", "evictions"):
                key = f"cache.{layer}.{field}"
                out[key] = out.get(key, 0) + getattr(lru, field)
    return out


def query_lemmas(synth, query: str) -> Set[str]:
    """The lemmas WordToAPI looks up for ``query`` (its non-literal
    pruned-graph nodes)."""
    pruned = prune_query_graph(parse_query(query), synth.domain.prune_config)
    return {n.lemma for n in pruned.nodes() if not n.is_literal}


def run_stages(tr: Tracer, synth, query: str, deadline: Deadline,
               seen_lemmas: Set[str]):
    """Steps 1-6 with one span per stage; returns (problem, outcome)."""
    domain, engine = synth.domain, synth.engine
    stats = SynthesisStats()
    with tr.span("parse"):
        dep = parse_query(query)
    with tr.span("prune"):
        pruned = prune_query_graph(dep, domain.prune_config)
    lemmas = {n.lemma for n in pruned.nodes() if not n.is_literal}
    tr.count("word_to_api.new_lemmas", len(lemmas - seen_lemmas))
    seen_lemmas |= lemmas
    with tr.span("word_to_api"):
        candidates = build_candidates(domain, pruned)
        pruned = drop_candidateless(pruned, candidates)
    if not candidates.get(pruned.root):
        raise SynthesisError(f"no API candidates for any word of {query!r}")
    remaining = {
        n.node_id: candidates[n.node_id]
        for n in pruned.nodes()
        if n.node_id in candidates
    }
    paths = domain.path_cache.paths
    hits, misses = paths.hits, paths.misses
    with tr.span("edge_to_path"):
        problem = SynthesisProblem(
            domain, pruned, remaining, synth.limits, deadline
        )
    tr.count("edge_to_path.searches", paths.misses - misses)
    tr.count("edge_to_path.lookups",
             paths.hits - hits + paths.misses - misses)
    tr.count("edge_to_path.candidate_paths", problem.total_paths())
    with tr.span("merge"):
        cgt = engine.search(problem, deadline, stats)
    tr.count("merge.combinations", stats.n_combinations)
    tr.count("merge.pruned_grammar", stats.pruned_by_grammar)
    tr.count("merge.pruned_size", stats.pruned_by_size)
    tr.count("merge.merged", stats.n_merged)
    tr.count("merge.valid_cgts", stats.n_valid_cgts)
    with tr.span("codegen"):
        graph = domain.graph
        outcome = SynthesisOutcome(
            query=query,
            engine=engine.name,
            expression=cgt_to_expression(cgt, graph),
            cgt=cgt,
            size=cgt.api_count(graph),
            stats=stats,
        )
    return problem, outcome


def synthesize(tr: Tracer, synth, query: str, budget: float,
               seen_lemmas: Set[str], examples=None, executor=None) -> str:
    """Traced ``Synthesizer.synthesize(query, budget, examples=...)``;
    returns the answered codelet.  The outcome cache is not consulted:
    the closed-loop workloads send distinct queries or examples, which
    bypass it."""
    deadline = Deadline(budget)
    problem, outcome = run_stages(tr, synth, query, deadline, seen_lemmas)
    if examples is None:
        return outcome.codelet
    with tr.span("rank"):
        outs = alternative_outcomes(
            problem, outcome, synth.engine, deadline, DEFAULT_TOP_K
        )
    tr.count("rank.alternatives", len(outs) - 1)
    ranked = outcomes_to_candidates(outs)
    with tr.span("verify"):
        report = verify_candidates(
            executor, [(c.rank, c.codelet) for c in ranked], examples,
            deadline,
        )
    for verdict in report.verdicts:
        tr.count(f"verify.{verdict.verdict}")
        if verdict.verdict != "skipped":
            tr.count("verify.executions")
    tr.count("verify.reranked", int(report.reranked))
    tr.count("verify.exhausted", int(report.status == "deadline_exhausted"))
    return outs[report.winner_rank - 1].codelet


class ServeReplay:
    """One ``repro serve`` request path, in process, over snapshot-loaded
    domains: ``parse_request`` → ``RequestScheduler.acquire`` → outcome
    cache → stages → ``release`` → ``ok_response`` → ``json.dumps``.
    Configured like ``repro serve`` with its defaults."""

    def __init__(self, domains: Dict[str, object], default_timeout: float):
        from repro.server.scheduler import RequestScheduler
        from repro.synthesis.pipeline import Synthesizer

        self.synths = {n: Synthesizer(d) for n, d in domains.items()}
        self.timeout = default_timeout
        self.scheduler = RequestScheduler(
            max_inflight=8, queue_depth=0, domains=tuple(sorted(domains)),
            target_deadline_seconds=default_timeout,
        )
        self.seen_lemmas: Dict[str, Set[str]] = {n: set() for n in domains}

    def warm(self, domain: str, query: str) -> None:
        """An untraced request, as the warm-up pass sends them."""
        synth = self.synths[domain]
        synth.synthesize(query, self.timeout, record_cache_delta=False)
        self.seen_lemmas[domain] |= query_lemmas(synth, query)

    def handle(self, tr: Tracer, body: bytes) -> Optional[str]:
        """Serve one request body; returns the codelet (None on error)."""
        from repro.server.protocol import ok_response, parse_request

        with tr.span("request"):
            with tr.span("protocol.decode"):
                request = parse_request(json.loads(body))
            name = request.domain
            with tr.span("scheduler.acquire"):
                grant = self.scheduler.acquire(
                    name, self.timeout, request.priority
                )
            started = time.monotonic()
            try:
                synth = self.synths[name]
                cache = synth.domain.path_cache
                # Synthesizer's outcome-cache key: everything a result
                # depends on besides the domain.
                limits = synth.limits or synth.domain.path_limits
                key = (request.query, synth.engine.name,
                       getattr(synth.engine, "config", None),
                       limits.cache_key())
                with tr.span("outcome_cache"):
                    outcome = cache.get_outcome(key)
                if outcome is None:
                    _problem, outcome = run_stages(
                        tr, synth, request.query,
                        Deadline(self.timeout - grant.queue_wait_seconds),
                        self.seen_lemmas[name],
                    )
                    outcome.elapsed_seconds = time.monotonic() - started
                    with tr.span("outcome_cache"):
                        cache.put_outcome(key, outcome)
                item = BatchItem(request.query, 0, outcome=outcome,
                                 elapsed_seconds=outcome.elapsed_seconds)
            finally:
                with tr.span("scheduler.release"):
                    self.scheduler.release(
                        name, service_seconds=time.monotonic() - started
                    )
            with tr.span("protocol.encode"):
                _status, payload = ok_response(item, request)
                json.dumps(payload).encode("utf-8")
        return payload.get("codelet")


def busy_seconds(layer_self: Dict[str, List[float]], name: str) -> float:
    return sum(layer_self.get(name, ()))


def span_durations(spans: Sequence[list], name: str) -> List[float]:
    return [end - start for n, start, end, _p, _r in spans if n == name]
