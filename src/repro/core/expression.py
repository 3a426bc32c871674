"""TreeToExpression (paper Step-6) and codelet utilities.

Step-6 "finds the smallest CGT, traverses it in a depth-first order, and puts
the API contained in the nodes together to form the final expression.  The
children of a node are regarded as parameters of the API in their parent
node."

This module provides:

* :class:`Expr` — the codelet AST (API applications and literal arguments);
* :func:`cgt_to_expression` — the depth-first emission from a CGT;
* :func:`parse_expression` — a re-parser for codelet text (tests re-parse
  every emitted codelet; the harness normalizes ground truths through it);
* :func:`validate_expression` — checks a codelet against the grammar graph
  (every argument API must be a *direct API child* of its parent API, i.e.
  reachable without crossing another API node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.errors import SynthesisError
from repro.core.cgt import CGT
from repro.grammar.graph import GrammarGraph, NodeKind
from repro.grammar.interning import interner_for


@dataclass(frozen=True)
class Expr:
    """A codelet AST node.

    Either an API application (``is_literal`` false; ``name`` is the API,
    ``args`` its parameters) or a literal argument (``is_literal`` true;
    ``name`` is the raw value).
    """

    name: str
    args: Tuple["Expr", ...] = ()
    is_literal: bool = False

    def render(self) -> str:
        if self.is_literal:
            return f'"{self.name}"'
        inner = ", ".join(a.render() for a in self.args)
        return f"{self.name}({inner})"

    def apis(self) -> List[str]:
        """All API names in the expression (preorder)."""
        if self.is_literal:
            return []
        out = [self.name]
        for a in self.args:
            out.extend(a.apis())
        return out

    def literals(self) -> List[str]:
        if self.is_literal:
            return [self.name]
        out: List[str] = []
        for a in self.args:
            out.extend(a.literals())
        return out

    def size(self) -> int:
        """Number of API applications."""
        return len(self.apis())

    def __str__(self) -> str:
        return self.render()


# ----------------------------------------------------------------------
# CGT -> expression
# ----------------------------------------------------------------------


def cgt_to_expression(cgt: CGT, graph: GrammarGraph) -> Expr:
    """Depth-first emission of the codelet encoded by a CGT.

    Children of each node follow the grammar's declaration order (the order
    of successor edges in the grammar graph), so argument order matches the
    DSL signature.
    """
    root = cgt.root()
    if root is None:
        raise SynthesisError("CGT has no unique root; cannot emit a codelet")

    cgt_children: Dict[str, Set[str]] = {}
    for src, dst in cgt.edges:
        cgt_children.setdefault(src, set()).add(dst)

    def ordered_children(node_id: str) -> List[str]:
        present = cgt_children.get(node_id, set())
        ordered = [e.dst for e in graph.successors(node_id) if e.dst in present]
        # Defensive: include any CGT child the grammar order missed.
        ordered.extend(sorted(present - set(ordered)))
        return ordered

    def collect(node_id: str, on_path: Set[str]) -> List[Expr]:
        if node_id in on_path:
            raise SynthesisError("cycle in CGT during expression emission")
        node = graph.node(node_id)
        on_path = on_path | {node_id}
        if node.kind is NodeKind.LITERAL:
            value = cgt.bindings.get(node_id)
            if value is None:
                return []  # unbound literal slot: omitted argument
            return [Expr(value, (), is_literal=True)]
        child_exprs: List[Expr] = []
        for child in ordered_children(node_id):
            child_exprs.extend(collect(child, on_path))
        if node.kind is NodeKind.API:
            return [Expr(node.label, tuple(child_exprs))]
        return child_exprs

    top = collect(root, set())
    if len(top) != 1:
        raise SynthesisError(
            f"CGT emitted {len(top)} top-level expressions; expected exactly 1"
        )
    return top[0]


# ----------------------------------------------------------------------
# Codelet text re-parser
# ----------------------------------------------------------------------


class _ExprScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> SynthesisError:
        return SynthesisError(
            f"codelet parse error at {self.pos}: {message} in {self.text!r}"
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def parse(self) -> Expr:
        self.skip_ws()
        expr = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing text after codelet")
        return expr

    def parse_expr(self) -> Expr:
        self.skip_ws()
        ch = self.peek()
        if ch == '"':
            return self.parse_quoted()
        name = self.parse_name()
        self.skip_ws()
        if self.peek() != "(":
            # Bare unquoted literal (numbers, symbols in legacy notation).
            return Expr(name, (), is_literal=True)
        self.expect("(")
        args: List[Expr] = []
        self.skip_ws()
        if self.peek() != ")":
            args.append(self.parse_expr())
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                args.append(self.parse_expr())
                self.skip_ws()
        self.expect(")")
        return Expr(name, tuple(args))

    def parse_quoted(self) -> Expr:
        self.expect('"')
        end = self.text.find('"', self.pos)
        if end < 0:
            raise self.error("unclosed string literal")
        value = self.text[self.pos : end]
        self.pos = end + 1
        return Expr(value, (), is_literal=True)

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_"
        ):
            self.pos += 1
        if self.pos == start:
            # single-symbol literal such as * or :
            if self.pos < len(self.text) and self.text[self.pos] not in "(),":
                self.pos += 1
                return self.text[start : self.pos]
            raise self.error("expected a name")
        return self.text[start : self.pos]


def parse_expression(text: str) -> Expr:
    """Parse codelet text back into an :class:`Expr` tree."""
    return _ExprScanner(text).parse()


def normalize_codelet(text: str) -> str:
    """Canonical rendering of codelet text (whitespace/quoting neutral).

    The accuracy metric compares normalized forms, implementing the paper's
    criterion: identical set of APIs, arguments, and relative order.
    """
    return parse_expression(text).render()


# ----------------------------------------------------------------------
# Grammar validation of codelets
# ----------------------------------------------------------------------


def direct_api_children(graph: GrammarGraph, api_node_id: str) -> Set[str]:
    """Labels of API/literal nodes reachable from an API without crossing
    another API node — the legal direct arguments of that API."""
    out: Set[str] = set()
    seen: Set[str] = set()
    frontier = [e.dst for e in graph.successors(api_node_id)]
    while frontier:
        node_id = frontier.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        node = graph.node(node_id)
        if node.kind in (NodeKind.API, NodeKind.LITERAL):
            out.add(node.label)
            continue  # do not cross API/literal boundaries
        frontier.extend(e.dst for e in graph.successors(node_id))
    return out


def validate_expression(expr: Expr, graph: GrammarGraph) -> List[str]:
    """Check a codelet against the grammar graph; returns a list of
    violations (empty = valid).

    Rules: the top API must be derivable from the grammar start; every
    argument (API or literal) must be a direct API child of its parent.
    """
    problems: List[str] = []
    if expr.is_literal:
        return [f"top-level literal {expr.name!r} is not a codelet"]
    if not graph.has_api(expr.name):
        return [f"unknown API {expr.name!r}"]
    top_id = graph.api_node(expr.name).node_id
    if not interner_for(graph).reaches(graph.start_id, top_id):
        problems.append(f"API {expr.name!r} not derivable from grammar start")

    def walk(node: Expr) -> None:
        if node.is_literal:
            return
        if not graph.has_api(node.name):
            problems.append(f"unknown API {node.name!r}")
            return
        legal = direct_api_children(graph, graph.api_node(node.name).node_id)
        for arg in node.args:
            if arg.is_literal:
                literal_slots = {
                    label
                    for label in legal
                    if not graph.has_api(label)
                }
                if not literal_slots:
                    problems.append(
                        f"API {node.name!r} takes no literal argument "
                        f"(got {arg.name!r})"
                    )
            elif arg.name not in legal:
                problems.append(
                    f"{arg.name!r} is not a legal argument of {node.name!r}"
                )
            walk(arg)

    walk(expr)
    return problems
