"""Shared fixtures (the paper's Fig. 4 toy grammar, the domains) and path helpers."""

from __future__ import annotations

import pytest

from repro.domains.astmatcher import build_domain as build_astmatcher
from repro.domains.textediting import build_domain as build_textediting
from repro.grammar.bnf import parse_bnf
from repro.grammar.graph import GrammarGraph
from repro.grammar.interning import interner_for
from repro.synthesis.problem import CandidatePath

#: A miniature editing grammar modeled on the paper's Figure 4(a): INSERT
#: with a string, a position (whose "or" alternatives exercise
#: grammar-based pruning), and an iteration scope.
TOY_BNF = """
cmd ::= insert_cmd | delete_cmd
insert_cmd ::= INSERT ins_str ins_pos ins_iter
ins_str ::= STRING str_val
ins_pos ::= pos_expr
pos_expr ::= POSITION num_val | START | startfrom_expr
startfrom_expr ::= STARTFROM from_val
ins_iter ::= iter_expr
iter_expr ::= ITERATIONSCOPE iter_scope iter_cond
iter_scope ::= LINESCOPE | WORDSCOPE
iter_cond ::= cond_expr | ALWAYS
cond_expr ::= CONTAINS occ_arg
occ_arg ::= NUMBERTOKEN | occ_val
delete_cmd ::= DELETE del_target del_iter
del_target ::= NUMBERTOKEN | del_str
del_str ::= STRING str_val
del_iter ::= iter_expr
"""

TOY_APIS = (
    "INSERT", "DELETE", "STRING", "POSITION", "START", "STARTFROM",
    "ITERATIONSCOPE", "LINESCOPE", "WORDSCOPE", "CONTAINS", "ALWAYS",
    "NUMBERTOKEN",
)


def encode(graph, nodes):
    """The interned encoding of the node-id path ``nodes`` over ``graph``."""
    index = interner_for(graph).index
    return tuple(index[node] for node in nodes)


def bfs_distances(graph, src):
    """Reference BFS over the graph's own edges: node id -> shortest
    edge count from ``src``, for every node ``src`` reaches (``src``
    itself at 0)."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for edge in graph.successors(node):
                if edge.dst not in dist:
                    dist[edge.dst] = dist[node] + 1
                    nxt.append(edge.dst)
        frontier = nxt
    return dist


def successor_sets(graph):
    """Node id -> the set of its successors' ids."""
    return {
        node.node_id: {edge.dst for edge in graph.successors(node.node_id)}
        for node in graph.nodes()
    }


def descendants(succs, src):
    """Reference reachability over :func:`successor_sets`: every node at
    the end of a path of at least one edge from ``src`` (``src`` itself
    only when a cycle returns to it)."""
    seen = set()
    frontier = succs[src]
    while frontier:
        seen |= frontier
        frontier = set().union(*(succs[node] for node in frontier)) - seen
    return seen


def candidate_path(graph, path, src_cand, dst_cand):
    """A ``CandidatePath`` over ``path`` with the encoding and size that
    ``SynthesisProblem`` gives its paths."""
    enc = encode(graph, path.nodes)
    return CandidatePath(path, src_cand, dst_cand, enc, path.size(graph))


@pytest.fixture(scope="session")
def toy_grammar():
    return parse_bnf(TOY_BNF)


@pytest.fixture(scope="session")
def toy_graph(toy_grammar):
    return GrammarGraph(toy_grammar, api_names=TOY_APIS)


@pytest.fixture(scope="session")
def toy_domain():
    """A full Domain over the toy grammar, for engine-level tests."""
    from repro.nlu.docs import ApiDoc
    from repro.synthesis.domain import Domain

    docs = [
        ApiDoc("INSERT", "Insert a string at a position.", ("insert",)),
        ApiDoc("DELETE", "Delete the target.", ("delete",)),
        ApiDoc("STRING", "A literal string.", ("string",)),
        ApiDoc("POSITION", "An absolute position number.", ("position",)),
        ApiDoc("START", "The start of the unit.", ("start",)),
        ApiDoc("STARTFROM", "Start from an offset.", ("start", "from")),
        ApiDoc("ITERATIONSCOPE", "Iterate over scope units.",
               ("iteration", "scope")),
        ApiDoc("LINESCOPE", "Iterate over lines.", ("line", "scope")),
        ApiDoc("WORDSCOPE", "Iterate over words.", ("word", "scope")),
        ApiDoc("CONTAINS", "Unit contains the token.", ("contains",)),
        ApiDoc("ALWAYS", "No filtering.", ("always",)),
        ApiDoc("NUMBERTOKEN", "A numeral token.", ("number", "token")),
    ]
    return Domain.create(
        name="toy",
        bnf_source=TOY_BNF,
        api_docs=docs,
        literal_targets={
            "quoted": ("str_val", "occ_val"),
            "number": ("num_val", "from_val"),
        },
    )


@pytest.fixture(scope="session")
def textediting():
    return build_textediting()


@pytest.fixture(scope="session")
def astmatcher():
    return build_astmatcher()


@pytest.fixture(scope="session")
def spreadsheet():
    from repro.domains import load_domain

    return load_domain("spreadsheet")


@pytest.fixture(scope="session")
def stringxform():
    from repro.domains import load_domain

    return load_domain("stringxform")
