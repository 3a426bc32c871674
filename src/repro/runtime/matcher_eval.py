"""Evaluator for ASTMatcher codelets over the mini C++ AST.

Closes the loop for the code-analysis domain: an English query becomes a
matcher expression (the synthesizer) and the matcher expression becomes a
set of AST nodes (this module)::

    >>> from repro.runtime import parse_cpp, match_codelet
    >>> ast = parse_cpp("int main() { return f(3.5); }")
    >>> [n.kind for n in match_codelet(
    ...     "callExpr(hasArgument(floatLiteral()))", ast)]
    ['callExpr']

Semantics follow LibASTMatchers: a *node matcher* selects nodes by class and
all its argument matchers must hold; *narrowing matchers* test the node
itself; *traversal matchers* relate it to other nodes.  Unknown narrowing
predicates (e.g. the attribute tail of the catalog) simply match nothing.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Callable, Dict, List, Optional, Set

from repro.core.expression import Expr, parse_expression
from repro.errors import ReproError
from repro.runtime.cppast import AstNode

if sys.version_info >= (3, 11):
    from re import _constants as _sre_constants, _parser as _sre_parse
else:  # the same modules before their 3.11 rename
    import sre_constants as _sre_constants
    import sre_parse as _sre_parse


class MatchError(ReproError):
    """A matcher codelet could not be evaluated."""


#: Node kinds per category, for the generic catch-all matchers.
_EXPR_KINDS = {
    "callExpr", "cxxMemberCallExpr", "cxxOperatorCallExpr",
    "cxxConstructExpr", "declRefExpr", "memberExpr", "arraySubscriptExpr",
    "binaryOperator", "unaryOperator", "conditionalOperator", "parenExpr",
    "integerLiteral", "floatLiteral", "stringLiteral", "characterLiteral",
    "cxxBoolLiteral", "cxxNullPtrLiteralExpr", "cxxThisExpr", "cxxNewExpr",
    "cxxDeleteExpr", "cxxThrowExpr", "initListExpr", "lambdaExpr",
}
_STMT_KINDS = {
    "compoundStmt", "ifStmt", "forStmt", "whileStmt", "doStmt",
    "returnStmt", "breakStmt", "continueStmt", "declStmt", "nullStmt",
    "switchStmt", "gotoStmt", "labelStmt", "cxxTryStmt", "cxxCatchStmt",
}
_DECL_KINDS = {
    "translationUnitDecl", "functionDecl", "cxxMethodDecl",
    "cxxConstructorDecl", "cxxDestructorDecl", "cxxRecordDecl", "recordDecl",
    "fieldDecl", "varDecl", "parmVarDecl", "namespaceDecl", "enumDecl",
    "enumConstantDecl", "typedefDecl",
}

#: Node matchers that accept a wider class than their own kind name.
_KIND_ALIASES: Dict[str, Set[str]] = {
    "expr": _EXPR_KINDS,
    "stmt": _STMT_KINDS | _EXPR_KINDS,  # expressions are statements in Clang
    "decl": _DECL_KINDS,
    "recordDecl": {"cxxRecordDecl", "recordDecl"},
    "namedDecl": {k for k in _DECL_KINDS if k != "translationUnitDecl"},
    "functionDecl": {"functionDecl", "cxxMethodDecl", "cxxConstructorDecl",
                     "cxxDestructorDecl"},
    "callExpr": {"callExpr", "cxxMemberCallExpr", "cxxOperatorCallExpr"},
    "declaratorDecl": {"varDecl", "parmVarDecl", "fieldDecl", "functionDecl"},
    "valueDecl": {"varDecl", "parmVarDecl", "fieldDecl", "enumConstantDecl"},
}

_BUILTIN_TYPES = {
    "void", "int", "float", "double", "char", "bool", "long", "short",
    "unsigned", "signed", "unsigned int", "long long",
}


def _type_kind(type_text: str) -> str:
    """Map a type string onto the type-matcher vocabulary."""
    stripped = type_text.replace("const", "").strip()
    if stripped.endswith("*"):
        return "pointerType"
    if stripped.endswith("&"):
        return "referenceType"
    if stripped in _BUILTIN_TYPES:
        return "builtinType"
    if stripped == "auto":
        return "autoType"
    if "<" in stripped:
        return "templateSpecializationType"
    return "recordType"


class MatchEvaluator:
    """Evaluates matcher expressions against one translation unit."""

    def __init__(self, root: AstNode):
        self.root = root
        self._decl_index: Dict[str, List[AstNode]] = {}
        for node in root.walk():
            if node.kind in _DECL_KINDS and node.name:
                self._decl_index.setdefault(node.name, []).append(node)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def match(self, matcher: Expr) -> List[AstNode]:
        """All nodes of the translation unit the matcher accepts."""
        return [n for n in self.root.walk() if self.matches(matcher, n)]

    def matches(self, matcher: Expr, node: AstNode) -> bool:
        if matcher.is_literal:
            raise MatchError(f"literal {matcher.name!r} is not a matcher")
        name = matcher.name
        if self._kind_accepts(name, node):
            return all(self._argument_holds(arg, node) for arg in matcher.args)
        if name in _NARROWING or name in _TRAVERSAL or name.startswith("is"):
            # A bare predicate used as a top-level matcher: evaluate it.
            return self._argument_holds(matcher, node)
        return False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    @staticmethod
    def _kind_accepts(matcher_name: str, node: AstNode) -> bool:
        alias = _KIND_ALIASES.get(matcher_name)
        if alias is not None:
            return node.kind in alias
        return node.kind == matcher_name

    def _argument_holds(self, arg: Expr, node: AstNode) -> bool:
        name = arg.name
        handler = _NARROWING.get(name)
        if handler is not None:
            return handler(self, arg, node)
        handler = _TRAVERSAL.get(name)
        if handler is not None:
            return handler(self, arg, node)
        if name.startswith("is") and name.endswith(
            ("Attr", "TypeAttr", "StmtAttr")
        ):
            return False  # attribute predicates: unsupported, match nothing
        # An inner node matcher used positionally (e.g. inside has()).
        if self._kind_accepts(name, node):
            return all(self._argument_holds(a, node) for a in arg.args)
        return False

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _literal(arg: Expr) -> Optional[str]:
        for a in arg.args:
            if a.is_literal:
                return a.name
        return None

    def _inner(self, arg: Expr) -> Optional[Expr]:
        for a in arg.args:
            if not a.is_literal:
                return a
        return None

    def _inner_matches(self, arg: Expr, node: Optional[AstNode]) -> bool:
        inner = self._inner(arg)
        if node is None:
            return False
        if inner is None:
            return True  # bare traversal: existence is enough
        return self.matches(inner, node)

    def _indexed_child(self, node: AstNode, key: str) -> Optional[AstNode]:
        index = node.attrs.get(key)
        if index is None or index >= len(node.children):
            return None
        return node.children[index]

    def _call_args(self, node: AstNode) -> List[AstNode]:
        if node.kind in _KIND_ALIASES["callExpr"]:
            return node.children[1:]  # child 0 is the callee expression
        if node.kind == "cxxConstructExpr":
            return list(node.children)
        return []

    def _referenced_decl(self, node: AstNode) -> Optional[AstNode]:
        name = node.attrs.get("callee_name") or node.name
        if not name:
            return None
        for decl in self._decl_index.get(str(name), []):
            return decl
        return None

    def _type_node(self, type_text: Optional[str]) -> Optional[AstNode]:
        if not type_text:
            return None
        node = AstNode(_type_kind(str(type_text)), str(type_text))
        node.attrs["type"] = type_text
        return node


# ----------------------------------------------------------------------
# Narrowing matchers
# ----------------------------------------------------------------------


def _flag(attr: str) -> Callable:
    def check(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
        return bool(node.attrs.get(attr))

    return check


def _has_name(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return bool(node.name) and node.name == self._literal(arg)


#: Repeat opcodes (``POSSESSIVE_REPEAT`` exists from 3.11 on).
_REPEATS = tuple(
    getattr(_sre_constants, name)
    for name in ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT")
    if hasattr(_sre_constants, name)
)


def _nested_repeat(items, in_repeat: bool = False) -> bool:
    """Whether a parsed pattern has a repeat with max > 1 that contains
    another repeat or an alternation — the shapes that backtrack
    exponentially, like ``(a+)+$`` on ``aaa...ab``.  An inner optional
    counts too: ``(a?){25}b`` on 25 ``a`` s searches for 35 s."""
    for op, av in items:
        if in_repeat and (op in _REPEATS or op == _sre_constants.BRANCH):
            return True
        if op in _REPEATS and av[1] > 1:
            if _nested_repeat(av[2], True):
                return True
            continue
        for child in _subpatterns(av):
            if _nested_repeat(child, in_repeat):
                return True
    return False


def _subpatterns(av):
    """The parsed subpatterns nested anywhere inside an opcode argument."""
    if isinstance(av, _sre_parse.SubPattern):
        yield av
    elif isinstance(av, (tuple, list)):
        for item in av:
            yield from _subpatterns(item)


@functools.lru_cache(maxsize=256)
def _name_pattern(pattern: str) -> Optional[re.Pattern]:
    """``pattern`` compiled, or None when it is not a regex or could
    backtrack exponentially.  C-level ``re`` holds the GIL, so a runaway
    search would stall every thread, and no wall-clock slice can stop it
    once it has started."""
    try:
        if _nested_repeat(_sre_parse.parse(pattern)):
            return None
        return re.compile(pattern)
    except re.error:
        return None


def _matches_name(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    pattern = self._literal(arg)
    if pattern is None or not node.name:
        return False
    # A bad candidate can land an arbitrary literal in the pattern slot;
    # an unparseable or refused regex matches nothing rather than raising.
    compiled = _name_pattern(pattern)
    return compiled is not None and compiled.search(node.name) is not None


def _has_operator_name(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return node.attrs.get("operator") == self._literal(arg)


def _count_of(want) -> object:
    """Best-effort integer of a count literal; a non-numeric literal (a
    bad candidate's doing) compares equal to nothing instead of raising."""
    try:
        return int(float(want))
    except (TypeError, ValueError):
        return object()


def _argument_count_is(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    want = self._literal(arg)
    return want is not None and node.attrs.get("arg_count") == _count_of(want)


def _parameter_count_is(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    want = self._literal(arg)
    return (
        want is not None and node.attrs.get("param_count") == _count_of(want)
    )


def _is_access(level: str) -> Callable:
    def check(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
        return node.attrs.get("access") == level

    return check


def _is_class(self, arg, node):
    return node.kind == "cxxRecordDecl" and node.attrs.get("tag") == "class"


def _is_struct(self, arg, node):
    return node.kind == "cxxRecordDecl" and node.attrs.get("tag") == "struct"


def _is_arrow(self, arg, node):
    return bool(node.attrs.get("is_arrow"))


def _is_assignment(self, arg, node):
    return str(node.attrs.get("operator", "")).endswith("=") and node.attrs.get(
        "operator"
    ) not in ("==", "!=", "<=", ">=")


def _is_comparison(self, arg, node):
    return node.attrs.get("operator") in ("==", "!=", "<", ">", "<=", ">=")


def _equals(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    want = self._literal(arg)
    if want is None:
        return False
    value = node.attrs.get("value", node.name)
    return str(value) == want


def _is_main(self, arg, node):
    return node.name == "main"


def _is_definition(self, arg, node):
    return bool(node.attrs.get("is_definition")) or node.kind in (
        "varDecl", "fieldDecl", "parmVarDecl", "cxxRecordDecl",
    )


_NARROWING: Dict[str, Callable] = {
    "hasName": _has_name,
    "matchesName": _matches_name,
    "hasOperatorName": _has_operator_name,
    "hasOverloadedOperatorName": _has_operator_name,
    "argumentCountIs": _argument_count_is,
    "parameterCountIs": _parameter_count_is,
    "equals": _equals,
    "isVirtual": _flag("is_virtual"),
    "isVirtualAsWritten": _flag("is_virtual"),
    "isPure": _flag("is_pure"),
    "isStatic": _flag("is_static"),
    "isConstexpr": _flag("is_constexpr"),
    "isInline": _flag("is_inline"),
    "isConst": _flag("is_const"),
    "isOverride": _flag("is_override"),
    "isFinal": _flag("is_final"),
    "isExplicit": _flag("is_explicit"),
    "isDeleted": _flag("is_deleted"),
    "isDefaulted": _flag("is_defaulted"),
    "isNoThrow": _flag("is_noexcept"),
    "isVariadic": _flag("is_variadic"),
    "isPublic": _is_access("public"),
    "isPrivate": _is_access("private"),
    "isProtected": _is_access("protected"),
    "isClass": _is_class,
    "isStruct": _is_struct,
    "isArrow": _is_arrow,
    "isAssignmentOperator": _is_assignment,
    "isComparisonOperator": _is_comparison,
    "isMain": _is_main,
    "isDefinition": _is_definition,
}


# ----------------------------------------------------------------------
# Traversal matchers
# ----------------------------------------------------------------------


def _has(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return any(self._inner_matches(arg, child) for child in node.children)


def _has_descendant(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return any(self._inner_matches(arg, d) for d in node.descendants())


def _for_each(self, arg, node):
    return _has(self, arg, node)


def _for_each_descendant(self, arg, node):
    return _has_descendant(self, arg, node)


def _has_parent(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return self._inner_matches(arg, node.parent)


def _has_ancestor(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return any(self._inner_matches(arg, a) for a in node.ancestors())


def _has_argument(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return any(self._inner_matches(arg, a) for a in self._call_args(node))


def _callee(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return self._inner_matches(arg, self._referenced_decl(node))


def _has_declaration(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    decl = self._referenced_decl(node)
    if decl is None and node.kind == "cxxConstructExpr":
        for candidate in self._decl_index.get(node.name.split("<")[0], []):
            decl = candidate
            break
    return self._inner_matches(arg, decl)


def _has_type(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    type_text = node.attrs.get("type")
    if type_text is None:
        return False
    literal = self._literal(arg)
    if literal is not None and self._inner(arg) is None:
        return str(type_text).strip() == literal
    return self._inner_matches(arg, self._type_node(str(type_text)))


def _as_string(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return str(node.attrs.get("type", node.name)).strip() == self._literal(arg)


def _indexed(key: str) -> Callable:
    def check(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
        return self._inner_matches(arg, self._indexed_child(node, key))

    return check


def _has_body(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    if "body" in node.attrs:
        return self._inner_matches(arg, self._indexed_child(node, "body"))
    for child in node.children:
        if child.kind == "compoundStmt":
            return self._inner_matches(arg, child)
    return False


def _has_any_parameter(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return any(
        self._inner_matches(arg, c)
        for c in node.children
        if c.kind == "parmVarDecl"
    )


def _returns(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    return self._inner_matches(arg, self._type_node(node.attrs.get("type")))


def _has_initializer(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    if node.kind not in ("varDecl", "fieldDecl", "parmVarDecl"):
        return False
    return any(self._inner_matches(arg, c) for c in node.children)


def _has_return_value(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    if node.kind != "returnStmt" or not node.children:
        return False
    return self._inner_matches(arg, node.children[0])


def _is_derived_from(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    if node.kind != "cxxRecordDecl":
        return False
    want = self._literal(arg)
    inner = self._inner(arg)
    seen: Set[str] = set()
    frontier = list(node.attrs.get("bases", []))
    while frontier:
        base_name = frontier.pop()
        if base_name in seen:
            continue
        seen.add(base_name)
        if want is not None and base_name == want:
            return True
        for decl in self._decl_index.get(base_name, []):
            if inner is not None and self.matches(inner, decl):
                return True
            frontier.extend(decl.attrs.get("bases", []))
    return False


def _member(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    if node.kind != "memberExpr":
        return False
    return self._inner_matches(arg, self._referenced_decl(node))


def _has_method(self: MatchEvaluator, arg: Expr, node: AstNode) -> bool:
    if node.kind != "cxxRecordDecl":
        return False
    return any(
        self._inner_matches(arg, c)
        for c in node.children
        if c.kind == "cxxMethodDecl"
    )


_TRAVERSAL: Dict[str, Callable] = {
    "has": _has,
    "hasDescendant": _has_descendant,
    "forEach": _for_each,
    "forEachDescendant": _for_each_descendant,
    "hasParent": _has_parent,
    "hasAncestor": _has_ancestor,
    "hasArgument": _has_argument,
    "hasAnyArgument": _has_argument,
    "callee": _callee,
    "hasDeclaration": _has_declaration,
    "to": _has_declaration,
    "hasType": _has_type,
    "asString": _as_string,
    "hasBody": _has_body,
    "hasCondition": _indexed("condition"),
    "hasThen": _indexed("then"),
    "hasElse": _indexed("else"),
    "hasInit": _indexed("init"),
    "hasLoopInit": _indexed("init"),
    "hasIncrement": _indexed("increment"),
    "hasLHS": _indexed("lhs"),
    "hasRHS": _indexed("rhs"),
    "hasBase": _indexed("base"),
    "hasIndex": _indexed("index"),
    "hasEitherOperand": _has,
    "hasUnaryOperand": _has,
    "hasAnyParameter": _has_any_parameter,
    "hasParameter": _has_any_parameter,
    "returns": _returns,
    "hasInitializer": _has_initializer,
    "hasReturnValue": _has_return_value,
    "isDerivedFrom": _is_derived_from,
    "isSameOrDerivedFrom": _is_derived_from,
    "isDirectlyDerivedFrom": _is_derived_from,
    "member": _member,
    "hasMethod": _has_method,
    "hasObjectExpression": _has,
    "on": _has,
    "hasSourceExpression": _has,
    "hasSingleDecl": _has,
    "containsDeclaration": _has,
    "hasAnySubstatement": _has,
    "withInitializer": _has,
    "ignoringImpCasts": _has,
    "ignoringParenCasts": _has,
    "ignoringParenImpCasts": _has,
    "ignoringImplicit": _has,
}


def match_codelet(codelet: str, root: AstNode) -> List[AstNode]:
    """Evaluate a matcher codelet against a parsed translation unit."""
    return MatchEvaluator(root).match(parse_expression(codelet))
