"""Graphviz DOT export for the paper's figures' structures.

Renders the three structures the paper draws — grammar graphs (Fig. 4(a)),
query dependency graphs (Fig. 3), and code generation trees — as DOT text,
so ``dot -Tsvg`` regenerates publication-style diagrams.  Pure text output;
no graphviz dependency required to produce the files.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.cgt import CGT
from repro.grammar.graph import EdgeKind, GrammarGraph, NodeKind
from repro.grammar.interning import interner_for
from repro.nlp.dependency import DependencyGraph

_SHAPES = {
    NodeKind.NONTERMINAL: "ellipse",
    NodeKind.DERIVATION: "box",
    NodeKind.API: "box",
    NodeKind.LITERAL: "plaintext",
}

_COLORS = {
    NodeKind.NONTERMINAL: "black",
    NodeKind.DERIVATION: "gray50",
    NodeKind.API: "red",
    NodeKind.LITERAL: "blue",
}


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def grammar_graph_to_dot(
    graph: GrammarGraph,
    roots: Optional[Iterable[str]] = None,
    max_nodes: int = 400,
) -> str:
    """DOT for a grammar graph (optionally restricted to the descendants of
    ``roots``).  API nodes are red boxes, "or" edges hollow-headed — the
    paper's Fig. 4(a) conventions."""
    if roots is not None:
        interner = interner_for(graph)
        keep = set()
        for root in roots:
            keep.add(root)
            keep.update(
                n for n in interner.node_ids if interner.reaches(root, n)
            )
    else:
        keep = {n.node_id for n in graph.nodes()}
    if len(keep) > max_nodes:
        keep = set(sorted(keep)[:max_nodes])

    lines: List[str] = ["digraph grammar {", "  rankdir=TB;"]
    for node_id in sorted(keep):
        node = graph.node(node_id)
        lines.append(
            f"  {_quote(node_id)} [label={_quote(node.label)} "
            f"shape={_SHAPES[node.kind]} color={_COLORS[node.kind]}];"
        )
    for edge in graph.edges():
        if edge.src in keep and edge.dst in keep:
            arrow = "empty" if edge.kind is EdgeKind.OR else "normal"
            lines.append(
                f"  {_quote(edge.src)} -> {_quote(edge.dst)} "
                f"[arrowhead={arrow}];"
            )
    lines.append("}")
    return "\n".join(lines)


def dependency_graph_to_dot(graph: DependencyGraph) -> str:
    """DOT for a (pruned) query dependency graph, edge labels = relations."""
    lines: List[str] = ["digraph dependency {", "  rankdir=TB;"]
    for node in graph.nodes():
        shape = "box" if node.is_literal else "ellipse"
        style = ' style=bold' if node.node_id == graph.root else ""
        lines.append(
            f"  n{node.node_id} [label={_quote(node.word)} shape={shape}{style}];"
        )
    for edge in graph.edges():
        lines.append(
            f"  n{edge.gov} -> n{edge.dep} [label={_quote(edge.rel)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def cgt_to_dot(cgt: CGT, graph: GrammarGraph) -> str:
    """DOT for a code generation tree; bound literals show their values."""
    lines: List[str] = ["digraph cgt {", "  rankdir=TB;"]
    for node_id in sorted(cgt.nodes()):
        node = graph.node(node_id)
        label = node.label
        if node.kind is NodeKind.LITERAL and node_id in cgt.bindings:
            label = f'{node.label} = "{cgt.bindings[node_id]}"'
        lines.append(
            f"  {_quote(node_id)} [label={_quote(label)} "
            f"shape={_SHAPES[node.kind]} color={_COLORS[node.kind]}];"
        )
    for src, dst in sorted(cgt.edges):
        lines.append(f"  {_quote(src)} -> {_quote(dst)};")
    lines.append("}")
    return "\n".join(lines)
