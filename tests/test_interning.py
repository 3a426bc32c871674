"""Unit coverage of the integer-interned DGGT core.

The engine's correctness rests on a handful of local invariants —
order-preserving int assignment, the bitmask validity algebra agreeing
with the set/CGT checks, and the int-space path search emitting its
pinned output (``data/paths_golden.jsonl``).  Each is pinned here in
isolation so a violation fails a unit test, not a 400-query sweep.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.core import dggt
from repro.core.cgt import CGT
from repro.core.dggt import DggtConfig, DggtEngine
from repro.core.dynamic_graph import InternedDynamicGraph
from repro.core.grammar_pruning import conflict_masks_for
from repro.domains import load_domain
from repro.errors import CacheSnapshotError, SynthesisError
from repro.grammar.graph import NodeKind, api_id
from repro.grammar.interning import SENTINEL_DIST, interner_for
from repro.grammar.path_cache import (
    SNAPSHOT_FORMAT_VERSION,
    PathCache,
    read_snapshot,
    write_snapshot,
)
from repro.grammar.path_voted import PathVotedGraph
from repro.grammar.paths import GrammarPath, PathSearchLimits, find_paths
from repro.synthesis.problem import (
    CandidatePath,
    EndpointCandidate,
    build_problem,
)
from tests.conftest import encode
from tests.data.make_paths_golden import (
    SUITES,
    TOY_LIMITS,
    golden_row,
    record,
)

PATHS_GOLDEN = Path(__file__).parent / "data" / "paths_golden.jsonl"


def _api_int(interner, name):
    return interner.index[api_id(name)]


# ---------------------------------------------------------------------------
# Order preservation: the invariant every tie-break relies on
# ---------------------------------------------------------------------------


class TestOrderPreservation:
    def test_node_ints_sorted_by_node_id(self, toy_graph):
        interner = interner_for(toy_graph)
        assert list(interner.node_ids) == sorted(interner.node_ids)
        for node_id, i in interner.index.items():
            assert interner.node_ids[i] == node_id

    def test_edge_codes_order_isomorphic(self, toy_graph):
        interner = interner_for(toy_graph)
        n = interner.n
        edges = [
            (pred, node)
            for node in range(n)
            for pred in interner.preds[node]
        ]
        by_code = sorted(edges, key=lambda e: e[0] * n + e[1])
        by_string = sorted(
            edges,
            key=lambda e: (
                interner.node_ids[e[0]], interner.node_ids[e[1]]
            ),
        )
        assert by_code == by_string

    def test_path_encoding_round_trip(self, textediting):
        interner = interner_for(textediting.graph)
        for path in find_paths(
            textediting.graph, api_id("INSERT"), api_id("NUMBERTOKEN"),
            textediting.path_limits,
        ):
            enc = encode(textediting.graph, path.nodes)
            assert interner.decode_nodes(enc) == path.nodes


# ---------------------------------------------------------------------------
# Search identity: the path search reproduces its pinned output
# ---------------------------------------------------------------------------


def _golden_paths():
    groups = {}
    with PATHS_GOLDEN.open() as fh:
        for line in fh:
            row = json.loads(line)
            groups.setdefault((row[0], tuple(row[3])), []).append(row)
    return groups


GOLDEN_PATHS = _golden_paths()


class TestSearchIdentity:
    """Every pinned ``[domain, src, dst, limits, n_paths, digest]`` row
    is reproduced by ``find_paths`` and by ``PathCache.find_paths``: the
    suites' endpoint pairs under their domains' limits (ASTMatcher's at
    its 30,000-visit cap), and every toy API pair under the default
    limits and tight caps.  Each size the cache returns next to a path
    is that path's ``GrammarPath.size``: its interior weight, plus 1 for
    an API source."""

    def _assert_golden(self, domain, graph, limits):
        rows = GOLDEN_PATHS[(domain, limits.cache_key())]
        assert rows
        mismatches = [
            row for row in rows
            if record(domain, graph, row[1], row[2], limits) != row
        ]
        assert not mismatches, mismatches[:3]
        cache = PathCache(graph)
        decode = cache.interner.decode_nodes
        wrong_sizes = []
        for row in rows:
            encs, sizes = cache.find_paths(row[1], row[2], limits)
            encs_list = [list(enc) for enc in encs]
            assert golden_row(domain, *row[1:3], limits, encs_list) == row
            expected = [
                GrammarPath("?", decode(enc)).size(graph) for enc in encs
            ]
            if list(sizes) != expected:
                wrong_sizes.append(row)
        assert not wrong_sizes, wrong_sizes[:3]

    def test_all_api_pairs_on_toy_graph(self, toy_graph):
        self._assert_golden("toy", toy_graph, PathSearchLimits())
        n_apis = len(list(toy_graph.api_nodes()))
        limits = PathSearchLimits().cache_key()
        assert len(GOLDEN_PATHS[("toy", limits)]) == n_apis * (n_apis - 1)

    @pytest.mark.parametrize(
        "limits_kwargs", [kw for kw in TOY_LIMITS if kw]
    )
    def test_caps_reconcile_identically(self, toy_graph, limits_kwargs):
        """Tight visit/path caps exercise the tagged-cap reconciliation:
        the iterative search may overshoot within a round but must report
        exactly what a search stopped at the cap would."""
        self._assert_golden(
            "toy", toy_graph, PathSearchLimits(**limits_kwargs)
        )

    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_endpoint_pairs(self, suite):
        domain = load_domain(suite)
        groups = [lim for d, lim in GOLDEN_PATHS if d == suite]
        assert groups == [domain.path_limits.cache_key()]
        self._assert_golden(suite, domain.graph, domain.path_limits)
        if suite == "astmatcher":
            assert domain.path_limits.max_visits == 30_000

    @pytest.mark.parametrize("suite", ["toy", "textediting", "spreadsheet"])
    def test_dist_from_matches_graph_bfs(self, suite, toy_graph):
        """The interner's int-space BFS gives the graph's own distances."""
        graph = toy_graph if suite == "toy" else load_domain(suite).graph
        interner = interner_for(graph)
        for src, node_id in enumerate(interner.node_ids):
            expected = [-1] * interner.n
            for other, d in graph.distances_from(node_id).items():
                expected[interner.index[other]] = d
            assert interner.dist_from(src) == expected

    def test_sentinel_terminates_rows(self, toy_graph):
        interner = interner_for(toy_graph)
        src = _api_int(interner, "INSERT")
        lookup = interner.sorted_preds(src)
        for node in range(interner.n):
            dists, preds = lookup(node)
            assert dists[-1] == SENTINEL_DIST
            assert len(dists) == len(preds) + 1
            assert list(dists[:-1]) == sorted(dists[:-1])


# ---------------------------------------------------------------------------
# Bitmask validity algebra vs. the set/CGT checks
# ---------------------------------------------------------------------------


def _cand(node_id):
    return EndpointCandidate(node_id=node_id, api_name=node_id)


class TestMaskAlgebra:
    def test_enc_masks_shape(self, toy_graph):
        interner = interner_for(toy_graph)
        for path in find_paths(
            toy_graph, api_id("INSERT"), api_id("NUMBERTOKEN")
        ):
            enc = encode(toy_graph, path.nodes)
            em, nm, dm, onm, nm_all = interner.enc_masks(enc)
            assert em.bit_count() == len(enc) - 1  # simple path: all distinct
            expected_nodes = 0
            for node in enc:
                expected_nodes |= 1 << node
            assert nm == expected_nodes
            assert nm_all == expected_nodes
            assert dm == nm & ~(1 << enc[0])

    def test_merge_validity_matches_cgt(self, toy_domain, monkeypatch):
        """Every combination Case II's fold lets through carries the ORs
        of its paths' masks, and the engine's verdict on those masks —
        offered to ``add_pcgt`` or dropped — and the tree cost it offers
        agree with the CGT checks and a set-based cost over the decoded
        paths.  Pruning is off so or-conflicting combinations reach the
        merge too."""
        folds, offered = [], {}
        fold = dggt.fold_siblings
        add_pcgt = InternedDynamicGraph.add_pcgt

        def recording_fold(*args):
            out = fold(*args)
            folds.append(out[0])
            return out

        def recording_add(self, gov_dep_id, gov_int, masks, cps, *rest):
            offered[tuple(map(id, cps))] = (masks, rest[1])
            return add_pcgt(self, gov_dep_id, gov_int, masks, cps, *rest)

        monkeypatch.setattr(dggt, "fold_siblings", recording_fold)
        monkeypatch.setattr(InternedDynamicGraph, "add_pcgt", recording_add)
        engine = DggtEngine(
            DggtConfig(grammar_pruning=False, size_pruning=False)
        )
        problems = []  # alive, so the path ids keying ``offered`` stay unique
        for query in (
            # START and POSITION are two alternatives of pos_expr.
            'insert ":" at the start at position 5 into lines',
            "insert numbers at the start containing numbers into words",
        ):
            problems.append(build_problem(toy_domain, query))
            try:
                engine.synthesize(problems[-1])
            except SynthesisError:
                pass
        graph = toy_domain.graph
        interner = interner_for(graph)
        agree_valid = agree_invalid = 0
        for survivor in (s for survivors in folds for s in survivors):
            combo = survivor[2]
            fem, fnm, fdm, fonm, nodes, sinks = survivor[4:10]
            cps = [rec[0] for rec in combo]
            expected_masks = [0] * 6
            for cp in cps:
                for i, mask in enumerate(
                    (*interner.enc_masks(cp.enc), 1 << cp.enc[-1])
                ):
                    expected_masks[i] |= mask
            assert [fem, fnm, fdm, fonm, nodes, sinks] == expected_masks
            paths = [cp.path.nodes for cp in cps]
            tree = CGT.from_paths(GrammarPath("?", p) for p in paths)
            valid = tree.is_tree() and not tree.or_conflicts(graph)
            key = tuple(map(id, cps))
            assert (key in offered) == valid, paths
            if not valid:
                agree_invalid += 1
                continue
            agree_valid += 1
            masks, cost = offered[key]
            assert masks == (fem, fdm, fonm)
            src = paths[0][0]
            sink_ids = {p[-1] for p in paths}
            node_ids = {n for p in paths for n in p} - sink_ids - {src}
            expected = sum(graph.api_weight(n) for n in node_ids)
            if src not in sink_ids and graph.node(src).kind is NodeKind.API:
                expected += 1
            assert cost == expected, paths
        # The sample must exercise both branches to mean anything.
        assert agree_valid and agree_invalid

    def test_conflict_masks_match_pairs(self, toy_graph):
        src = api_id("INSERT")
        paths = []
        for dst in ("POSITION", "START", "STARTFROM", "NUMBERTOKEN"):
            for k, p in enumerate(find_paths(toy_graph, src, api_id(dst))[:3]):
                paths.append(
                    CandidatePath(
                        GrammarPath(f"{dst}.{k}", p.nodes),
                        _cand(src), _cand(api_id(dst)),
                    )
                )
        pairs = PathVotedGraph(
            toy_graph, (cp.path for cp in paths)
        ).conflict_path_pairs()
        assert pairs, "sample must contain at least one or-conflict"
        encs = [encode(toy_graph, cp.path.nodes) for cp in paths]
        records = conflict_masks_for(toy_graph, encs)
        for i in range(len(paths)):
            for j in range(len(paths)):
                if i == j:
                    continue
                expected = (
                    frozenset((paths[i].path_id, paths[j].path_id)) in pairs
                )
                bit_i, _mask_i = records[i]
                _bit_j, mask_j = records[j]
                assert bool(mask_j & bit_i) == expected, (i, j)


# ---------------------------------------------------------------------------
# Snapshot format bumps: older files must be rejected, not mis-loaded
# ---------------------------------------------------------------------------


class TestSnapshotVersioning:
    def test_current_version_is_3(self):
        assert SNAPSHOT_FORMAT_VERSION == 3

    def test_v1_snapshot_rejected(self, tmp_path, toy_domain):
        path = tmp_path / "toy.dggtcache"
        write_snapshot(toy_domain.path_cache, path, "toy")
        payload = pickle.loads(path.read_bytes())
        payload["format_version"] = 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CacheSnapshotError, match="format version"):
            read_snapshot(path)


# ---------------------------------------------------------------------------
# Slotted hot records: no __dict__, and they must survive the pickle pipe
# of the process-pool backend
# ---------------------------------------------------------------------------


class TestSlottedRecords:
    def _records(self):
        endpoint = EndpointCandidate(
            node_id="api:INSERT", api_name="INSERT", rank=1
        )
        path = CandidatePath(
            GrammarPath("1.0", ("api:INSERT", "nt:x", "api:STRING")),
            endpoint,
            EndpointCandidate(node_id="lit:str_val", value="x"),
            enc=(4, 7, 5),
            size=1,
        )
        return endpoint, path

    def test_no_instance_dict(self):
        for record in self._records():
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_pickle_round_trip(self):
        for record in self._records():
            clone = pickle.loads(pickle.dumps(record))
            assert clone == record
        _endpoint, path = self._records()
        clone = pickle.loads(pickle.dumps(path))
        assert (clone.enc, clone.size) == (path.enc, path.size)
