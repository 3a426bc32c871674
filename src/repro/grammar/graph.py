"""Grammar graph: the directed-graph form of a CFG (paper Sec. II & IV-A).

Three node kinds (paper Fig. 4(a)):

* **non-terminal nodes** — one per grammar non-terminal;
* **derivation nodes** — one per multi-symbol alternative of a choice rule,
  representing the entire right-hand side;
* **API nodes** — one per terminal that names a DSL API function.  Terminals
  that are not APIs (number slots, quoted-string slots, ...) become *literal*
  nodes, a fourth kind this implementation adds so that argument placeholders
  participate in paths without being counted as APIs.

Two edge kinds:

* **concatenation edges** (solid-headed in the paper) — from a rule's parent
  node to each right-hand-side symbol;
* **"or" edges** (hollow-headed) — from a non-terminal to each of its
  alternatives; alternatives are mutually exclusive, which is what
  grammar-based pruning (Sec. V-A) exploits.

Head-API convention
-------------------
When an alternative starts with an API terminal followed by more symbols
(``insert ::= INSERT insert_arg``), the API is the *head* of the rule and the
remaining symbols are its arguments.  The graph then runs
``parent -> INSERT -> insert_arg`` rather than fanning both out of the parent.
This reproduces the paths in the paper's Figure 4 (e.g.
``INSERT -> insert_arg -> string -> STRING``) and gives every API node
dominance over its argument subtree, which TreeToExpression relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GrammarError
from repro.grammar.cfg import Grammar


class NodeKind(Enum):
    NONTERMINAL = "nonterminal"
    DERIVATION = "derivation"
    API = "api"
    LITERAL = "literal"


class EdgeKind(Enum):
    CONCAT = "concat"
    OR = "or"


@dataclass(frozen=True)
class GNode:
    """A grammar-graph node.  ``node_id`` is unique within one graph."""

    node_id: str
    kind: NodeKind
    label: str

    @property
    def is_api(self) -> bool:
        return self.kind is NodeKind.API

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GNode({self.node_id})"


@dataclass(frozen=True)
class GEdge:
    src: str
    dst: str
    kind: EdgeKind

    def as_pair(self) -> Tuple[str, str]:
        return (self.src, self.dst)


def nonterminal_id(name: str) -> str:
    return f"nt:{name}"


def api_id(name: str) -> str:
    return f"api:{name}"


def literal_id(name: str) -> str:
    return f"lit:{name}"


def derivation_id(lhs: str, index: int) -> str:
    return f"drv:{lhs}/{index}"


class GrammarGraph:
    """Graph representation of a CFG plus the queries synthesis needs.

    Parameters
    ----------
    grammar:
        The source CFG.
    api_names:
        Which terminals are DSL API functions.  Terminals not listed become
        literal nodes.  Defaults to *all* terminals being APIs.
    """

    def __init__(
        self,
        grammar: Grammar,
        api_names: Optional[Iterable[str]] = None,
        generic_apis: Optional[Iterable[str]] = None,
    ):
        self.grammar = grammar
        apis = set(api_names) if api_names is not None else set(grammar.terminals)
        unknown = apis - grammar.terminals
        if unknown:
            raise GrammarError(
                f"api_names not in grammar terminals: {sorted(unknown)}"
            )
        self._api_names = apis
        # Generic APIs ("stmt", "expr", ...) carry no semantics of their own:
        # they weigh 0 in the smallest-CGT objective, implementing the
        # paper's "minimum unmentioned semantic" criterion exactly.
        self._generic_apis = set(generic_apis or ()) & apis

        self._nodes: Dict[str, GNode] = {}
        self._succ: Dict[str, List[GEdge]] = {}
        self._pred: Dict[str, List[GEdge]] = {}
        self._edges: Dict[Tuple[str, str], GEdge] = {}
        self._or_groups: Dict[str, List[str]] = {}
        self._head_args: Dict[str, List[str]] = {}
        self._build()
        self.start_id = nonterminal_id(grammar.start)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _symbol_node(self, symbol: str) -> GNode:
        if self.grammar.is_nonterminal(symbol):
            return self._ensure(nonterminal_id(symbol), NodeKind.NONTERMINAL, symbol)
        if symbol in self._api_names:
            return self._ensure(api_id(symbol), NodeKind.API, symbol)
        return self._ensure(literal_id(symbol), NodeKind.LITERAL, symbol)

    def _ensure(self, node_id: str, kind: NodeKind, label: str) -> GNode:
        node = self._nodes.get(node_id)
        if node is None:
            node = GNode(node_id, kind, label)
            self._nodes[node_id] = node
            self._succ[node_id] = []
            self._pred[node_id] = []
        return node

    def _add_edge(self, src: str, dst: str, kind: EdgeKind) -> None:
        key = (src, dst)
        if key in self._edges:
            return
        edge = GEdge(src, dst, kind)
        self._edges[key] = edge
        self._succ[src].append(edge)
        self._pred[dst].append(edge)

    def _expand_alternative(self, parent_id: str, symbols: Tuple[str, ...]) -> None:
        """Attach one right-hand side below ``parent_id`` (concat edges)."""
        head = symbols[0]
        if len(symbols) > 1 and head in self._api_names:
            head_node = self._symbol_node(head)
            self._add_edge(parent_id, head_node.node_id, EdgeKind.CONCAT)
            args = self._head_args.setdefault(head_node.node_id, [])
            for sym in symbols[1:]:
                child = self._symbol_node(sym)
                self._add_edge(head_node.node_id, child.node_id, EdgeKind.CONCAT)
                if child.node_id not in args:
                    args.append(child.node_id)
            return
        for sym in symbols:
            child = self._symbol_node(sym)
            self._add_edge(parent_id, child.node_id, EdgeKind.CONCAT)

    def _build(self) -> None:
        for prod in self.grammar.productions:
            parent = self._ensure(
                nonterminal_id(prod.lhs), NodeKind.NONTERMINAL, prod.lhs
            )
            if prod.is_choice:
                group: List[str] = []
                for index, alt in enumerate(prod.alternatives):
                    if len(alt) == 1:
                        target = self._symbol_node(alt[0])
                        self._add_edge(parent.node_id, target.node_id, EdgeKind.OR)
                        group.append(target.node_id)
                    else:
                        drv = self._ensure(
                            derivation_id(prod.lhs, index),
                            NodeKind.DERIVATION,
                            " ".join(alt),
                        )
                        self._add_edge(parent.node_id, drv.node_id, EdgeKind.OR)
                        group.append(drv.node_id)
                        self._expand_alternative(drv.node_id, alt)
                self._or_groups[parent.node_id] = group
            else:
                self._expand_alternative(parent.node_id, prod.alternatives[0])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def node(self, node_id: str) -> GNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GrammarError(f"no grammar-graph node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Iterator[GNode]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[GEdge]:
        return iter(self._edges.values())

    def edge(self, src: str, dst: str) -> GEdge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise GrammarError(f"no grammar-graph edge {src!r} -> {dst!r}") from None

    def successors(self, node_id: str) -> List[GEdge]:
        return list(self._succ.get(node_id, ()))

    def predecessors(self, node_id: str) -> List[GEdge]:
        return list(self._pred.get(node_id, ()))

    def api_node(self, api_name: str) -> GNode:
        return self.node(api_id(api_name))

    def has_api(self, api_name: str) -> bool:
        return api_id(api_name) in self._nodes

    def api_nodes(self) -> List[GNode]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.API]

    def api_weight(self, node_id: str) -> int:
        """Semantic weight of a node in the smallest-CGT objective: 1 for an
        ordinary API, 0 for a generic API or a non-API node."""
        node = self._nodes.get(node_id)
        if node is None or node.kind is not NodeKind.API:
            return 0
        return 0 if node.label in self._generic_apis else 1

    @property
    def generic_apis(self) -> frozenset:
        return frozenset(self._generic_apis)

    def or_group(self, nonterminal_node_id: str) -> List[str]:
        """Alternative targets of a choice non-terminal (empty if not one)."""
        return list(self._or_groups.get(nonterminal_node_id, ()))

    def or_groups(self) -> Dict[str, List[str]]:
        return {k: list(v) for k, v in self._or_groups.items()}

    @property
    def or_group_map(self) -> Dict[str, List[str]]:
        """Read-only view of the or-groups (no copying — hot-path use).

        Callers must not mutate the returned dict or its lists.
        """
        return self._or_groups

    def head_arguments(self, api_node_id: str) -> List[str]:
        """Argument symbol nodes of a head API, in grammar order."""
        return list(self._head_args.get(api_node_id, ()))

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GrammarGraph(|V|={self.n_nodes}, |E|={self.n_edges})"
