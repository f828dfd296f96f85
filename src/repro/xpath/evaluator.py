"""Evaluator for the XPath 1.0 subset.

The evaluator walks the AST produced by :mod:`repro.xpath.parser` against
the tree model.  Node-sets are kept in document order (required for
positional predicates) and deduplicated after descendant axes.

The public entry points live in :mod:`repro.xpath` (``compile_xpath`` /
``select`` / ``select_strings``); this module contains the machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from repro.xmlmodel.tree import Comment, Document, Element, Node, Text
from repro.xpath import ast, functions
from repro.xpath.errors import XPathTypeError
from repro.xpath.values import (
    AttributeNode,
    NodeLike,
    XPathValue,
    compare,
    is_node_set,
    to_boolean,
    to_number,
    unique_nodes,
)


@dataclass
class Context:
    """Evaluation context: the context node plus position/size.

    ``position`` and ``size`` are 1-based, per the XPath data model.
    """

    node: NodeLike
    position: int = 1
    size: int = 1


def evaluate(expr: ast.Expression, context: Context) -> XPathValue:
    """Evaluate ``expr`` in ``context`` and return an XPath value."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Negate):
        return -to_number(evaluate(expr.operand, context))
    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, context)
    if isinstance(expr, ast.FunctionCall):
        args = [evaluate(arg, context) for arg in expr.args]
        return functions.call(expr.name, context, args)
    if isinstance(expr, ast.LocationPath):
        return _evaluate_path(expr, context)
    if isinstance(expr, ast.FilterExpression):
        return _evaluate_filter(expr, context)
    raise XPathTypeError(f"cannot evaluate {type(expr).__name__}")


# -- operators ------------------------------------------------------------


def _evaluate_binary(expr: ast.BinaryOp, context: Context) -> XPathValue:
    op = expr.op
    if op == "or":
        return (to_boolean(evaluate(expr.left, context))
                or to_boolean(evaluate(expr.right, context)))
    if op == "and":
        return (to_boolean(evaluate(expr.left, context))
                and to_boolean(evaluate(expr.right, context)))
    left = evaluate(expr.left, context)
    right = evaluate(expr.right, context)
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return compare(op, left, right)
    if op == "|":
        if not is_node_set(left) or not is_node_set(right):
            raise XPathTypeError("'|' requires node-set operands")
        merged = unique_nodes(list(left) + list(right))
        return _document_order(merged)
    left_num, right_num = to_number(left), to_number(right)
    if op == "+":
        return left_num + right_num
    if op == "-":
        return left_num - right_num
    if op == "*":
        return left_num * right_num
    if op == "div":
        if right_num == 0:
            if left_num == 0 or math.isnan(left_num):
                return math.nan
            return math.inf if left_num > 0 else -math.inf
        return left_num / right_num
    if op == "mod":
        if right_num == 0 or math.isnan(left_num) or math.isnan(right_num):
            return math.nan
        return math.fmod(left_num, right_num)
    raise XPathTypeError(f"unknown operator {op!r}")


# -- paths ------------------------------------------------------------


def _evaluate_path(path: ast.LocationPath, context: Context) -> list[NodeLike]:
    if path.absolute:
        root = _document_root(context.node)
        if not path.steps:
            return [root]
        nodes, remaining = _start_absolute(list(path.steps), root)
    else:
        nodes = [context.node]
        remaining = list(path.steps)
    for step in remaining:
        nodes = _evaluate_step(step, nodes)
    return nodes


def _is_anchor(step: ast.Step) -> bool:
    """True for the expansion of '//': descendant-or-self::node()."""
    return (
        step.axis == ast.DESCENDANT_OR_SELF
        and isinstance(step.test, ast.NodeTypeTest)
        and step.test.node_type == "node"
        and not step.predicates
    )


def _start_absolute(
    steps: list[ast.Step], root: Element
) -> tuple[list[NodeLike], list[ast.Step]]:
    """Consume the leading step(s) of an absolute path.

    An absolute path starts at the (implicit) document node, whose only
    element child is the root element.  The tree model has no document
    node object, so the leading axes are mapped directly:

    * ``/X``   -> the root element when it matches the test,
    * ``//X``  -> every descendant-or-self node of the root matching X
      (the anchor step is fused with the following child step so the
      root element itself is eligible, exactly as the spec's expansion
      through the document node implies),
    * descendant axes -> matching nodes among root and its descendants,
    * anything else -> evaluated with the root element as context.
    """
    first = steps[0]
    if _is_anchor(first) and len(steps) >= 2 and steps[1].axis == ast.CHILD:
        fused = steps[1]
        candidates: list[NodeLike] = _descendant_matches(root, fused.test)
        for predicate in fused.predicates:
            candidates = _apply_predicate(candidates, predicate)
        return candidates, steps[2:]
    if first.axis == ast.CHILD:
        candidates = [root] if _test_matches(first.test, root) else []
    elif first.axis in (ast.DESCENDANT, ast.DESCENDANT_OR_SELF):
        candidates = _descendant_matches(root, first.test)
    else:
        return _evaluate_step(first, [root]), steps[1:]
    for predicate in first.predicates:
        candidates = _apply_predicate(candidates, predicate)
    return candidates, steps[1:]


def _descendant_matches(root: Element, test: ast.Expression) -> list[NodeLike]:
    """Descendant-or-self nodes of ``root`` matching ``test``."""
    if isinstance(test, ast.NameTest) and test.name != "*":
        return list(root.iter_elements(test.name))
    return [
        node for node in _descendants_or_self(root)
        if _test_matches(test, node)
    ]


def _evaluate_filter(expr: ast.FilterExpression, context: Context) -> XPathValue:
    value = evaluate(expr.primary, context)
    if expr.predicates or expr.path is not None:
        if not is_node_set(value):
            raise XPathTypeError(
                "predicates/paths can only follow node-set expressions")
        nodes = value
        for predicate in expr.predicates:
            nodes = _apply_predicate(nodes, predicate)
        if expr.path is not None:
            for step in expr.path.steps:
                nodes = _evaluate_step(step, nodes)
        return nodes
    return value


def _evaluate_step(step: ast.Step, nodes: list[NodeLike]) -> list[NodeLike]:
    gathered: list[NodeLike] = []
    for node in nodes:
        gathered.extend(_axis_candidates(step, node))
    # Distinct context nodes can never share a child or an attribute, and
    # a single context node yields unique candidates on every axis — the
    # dedup pass is only needed for overlapping axes over several nodes.
    if len(nodes) > 1 and step.axis not in (ast.CHILD, ast.ATTRIBUTE):
        gathered = unique_nodes(gathered)
    for predicate in step.predicates:
        gathered = _apply_predicate(gathered, predicate)
    return gathered


def _apply_predicate(nodes: list[NodeLike],
                     predicate: ast.Expression) -> list[NodeLike]:
    fast = _fast_predicate(predicate)
    if fast is not None:
        kept = []
        for node in nodes:
            if isinstance(node, Element):
                if fast(node):
                    kept.append(node)
            elif _matches_generic(predicate, node):
                kept.append(node)
        return kept
    size = len(nodes)
    kept = []
    for position, node in enumerate(nodes, start=1):
        context = Context(node=node, position=position, size=size)
        value = evaluate(predicate, context)
        if isinstance(value, float):
            # A numeric predicate selects by position.
            if float(position) == value:
                kept.append(node)
        elif to_boolean(value):
            kept.append(node)
    return kept


def _matches_generic(predicate: ast.Expression, node: NodeLike) -> bool:
    """Generic single-node predicate test (fast-path fallback).

    Only reached for non-element context nodes under a fast-compiled
    predicate, which by construction is position-independent.
    """
    return to_boolean(evaluate(predicate, Context(node=node)))


# -- compiled predicates ------------------------------------------------------------
#
# Detection evaluates tens of thousands of predicates of the shape the
# query rewriter emits: conjunctions of ``child-path = 'literal'`` (and
# the occasional numeric comparison).  Interpreting that through the
# generic evaluator costs a Context allocation plus several dispatch
# layers per node; compiling each predicate once into a closure over the
# tree's child-tag indexes removes all of it.  Predicates that depend on
# position()/last()/functions, or use axes outside the plain child/
# attribute/text() chain, are left to the generic path (``None``).

_FAST_UNSET = object()

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _fast_predicate(predicate: ast.Expression):
    fast = getattr(predicate, "_fast_pred", _FAST_UNSET)
    if fast is _FAST_UNSET:
        fast = _compile_fast(predicate)
        # AST nodes are frozen dataclasses; attach the compiled closure
        # out-of-band so every cached query compiles each predicate once.
        object.__setattr__(predicate, "_fast_pred", fast)
    return fast


def _compile_fast(predicate: ast.Expression):
    if isinstance(predicate, ast.BinaryOp):
        op = predicate.op
        if op in ("and", "or"):
            left = _compile_fast(predicate.left)
            right = _compile_fast(predicate.right)
            if left is None or right is None:
                return None
            if op == "and":
                return lambda element: left(element) and right(element)
            return lambda element: left(element) or right(element)
        if op in _FLIPPED:
            comparison = _compile_comparison(predicate.left, predicate.right,
                                             op)
            if comparison is None:
                comparison = _compile_comparison(predicate.right,
                                                 predicate.left, _FLIPPED[op])
            return comparison
        return None
    if isinstance(predicate, ast.LocationPath):
        collect = _compile_value_path(predicate)
        if collect is None:
            return None
        return lambda element: bool(collect(element))
    return None


def _compile_comparison(path_side: ast.Expression, atom_side: ast.Expression,
                        op: str):
    """Closure for ``path op atom`` (existential node-set comparison)."""
    if not isinstance(path_side, ast.LocationPath):
        return None
    collect = _compile_value_path(path_side)
    if collect is None:
        return None
    if isinstance(atom_side, ast.Literal):
        literal = atom_side.value
        if op == "=":
            return lambda element: literal in collect(element)
        if op == "!=":
            return lambda element: any(
                value != literal for value in collect(element))
        number = to_number(literal)
        return lambda element: any(
            _numeric_holds(op, to_number(value), number)
            for value in collect(element))
    if isinstance(atom_side, ast.Number):
        number = atom_side.value
        return lambda element: any(
            _numeric_holds(op, to_number(value), number)
            for value in collect(element))
    return None


def _numeric_holds(op: str, left: float, right: float) -> bool:
    if math.isnan(left) or math.isnan(right):
        return op == "!=" and not (math.isnan(left) and math.isnan(right))
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _compile_value_path(path: ast.LocationPath):
    """Closure Element -> list of string-values for a simple relative path.

    Supported: ``tag``, ``tag1/tag2``, optionally terminated by
    ``@name`` or ``text()`` — i.e. predicate-free child chains, exactly
    what the query rewriter generates.
    """
    if path.absolute or not path.steps:
        return None
    steps = path.steps
    tags: list[str] = []
    tail = steps[-1]
    for step in steps[:-1]:
        if (step.axis != ast.CHILD or step.predicates
                or not isinstance(step.test, ast.NameTest)
                or step.test.name == "*"):
            return None
        tags.append(step.test.name)
    if tail.predicates:
        return None
    if tail.axis == ast.CHILD and isinstance(tail.test, ast.NameTest) \
            and tail.test.name != "*":
        final_tag = tail.test.name

        def collect(element: Element) -> list[str]:
            values: list[str] = []
            for owner in _walk_tags(element, tags):
                for leaf in owner.children_by_tag(final_tag):
                    values.append(leaf.string_value())
            return values

        return collect
    if tail.axis == ast.ATTRIBUTE and isinstance(tail.test, ast.NameTest) \
            and tail.test.name != "*":
        attr_name = tail.test.name

        def collect_attr(element: Element) -> list[str]:
            values: list[str] = []
            for owner in _walk_tags(element, tags):
                value = owner.attributes.get(attr_name)
                if value is not None:
                    values.append(value)
            return values

        return collect_attr
    if tail.axis == ast.CHILD and isinstance(tail.test, ast.NodeTypeTest) \
            and tail.test.node_type == "text":

        def collect_text(element: Element) -> list[str]:
            values: list[str] = []
            for owner in _walk_tags(element, tags):
                for child in owner.children:
                    if isinstance(child, Text):
                        values.append(child.value)
            return values

        return collect_text
    return None


def _walk_tags(element: Element, tags: list[str]):
    """Elements reached from ``element`` through the child-tag chain."""
    current = [element]
    for tag in tags:
        scope: list[Element] = []
        for node in current:
            scope.extend(node.children_by_tag(tag))
        if not scope:
            return ()
        current = scope
    return current


# -- axes ------------------------------------------------------------


def _axis_candidates(step: ast.Step, node: NodeLike) -> Iterator[NodeLike]:
    axis = step.axis
    if axis == ast.CHILD:
        yield from _match_children(step.test, node)
    elif axis == ast.ATTRIBUTE:
        yield from _match_attributes(step.test, node)
    elif axis == ast.SELF:
        if _test_matches(step.test, node):
            yield node
    elif axis == ast.PARENT:
        parent = _parent_of(node)
        if parent is not None and _test_matches(step.test, parent):
            yield parent
    elif axis == ast.DESCENDANT_OR_SELF:
        test = step.test
        if isinstance(node, Element) and isinstance(test, ast.NameTest) \
                and test.name != "*":
            yield from node.iter_elements(test.name)
        else:
            for candidate in _descendants_or_self(node):
                if _test_matches(test, candidate):
                    yield candidate
    elif axis == ast.DESCENDANT:
        test = step.test
        if isinstance(node, Element) and isinstance(test, ast.NameTest) \
                and test.name != "*":
            for candidate in node.iter_elements(test.name):
                if candidate is not node:
                    yield candidate
        else:
            for candidate in _descendants_or_self(node):
                if candidate is node:
                    continue
                if _test_matches(test, candidate):
                    yield candidate
    elif axis == ast.ANCESTOR:
        if isinstance(node, (Node,)):
            for ancestor in node.ancestors():
                if _test_matches(step.test, ancestor):
                    yield ancestor
        elif isinstance(node, AttributeNode):
            current: Optional[Element] = node.owner
            while current is not None:
                if _test_matches(step.test, current):
                    yield current
                current = current.parent
    elif axis == ast.ANCESTOR_OR_SELF:
        yield from _axis_candidates(
            ast.Step(ast.SELF, step.test), node)
        yield from _axis_candidates(
            ast.Step(ast.ANCESTOR, step.test), node)
    elif axis == ast.FOLLOWING_SIBLING:
        yield from _siblings(step.test, node, forward=True)
    elif axis == ast.PRECEDING_SIBLING:
        yield from _siblings(step.test, node, forward=False)
    else:
        raise XPathTypeError(f"unsupported axis {axis!r}")


def _match_children(test: ast.Expression, node: NodeLike) -> Iterator[NodeLike]:
    if isinstance(node, AttributeNode):
        return
    if isinstance(node, Element):
        if isinstance(test, ast.NameTest) and test.name != "*":
            # Indexed lookup: only element children can match a name test.
            yield from node.children_by_tag(test.name)
            return
        for child in node.children:
            if _test_matches(test, child):
                yield child


def _match_attributes(test: ast.Expression, node: NodeLike) -> Iterator[NodeLike]:
    if not isinstance(node, Element):
        return
    if isinstance(test, ast.NameTest):
        if test.name == "*":
            for name in node.attributes:
                yield AttributeNode(node, name)
        elif test.name in node.attributes:
            yield AttributeNode(node, test.name)
    elif isinstance(test, ast.NodeTypeTest) and test.node_type == "node":
        for name in node.attributes:
            yield AttributeNode(node, name)


def _test_matches(test: ast.Expression, node: NodeLike) -> bool:
    if isinstance(test, ast.NameTest):
        if isinstance(node, Element):
            return test.matches(node.tag)
        if isinstance(node, AttributeNode):
            return test.matches(node.name)
        return False
    if isinstance(test, ast.NodeTypeTest):
        if test.node_type == "node":
            return True
        if test.node_type == "text":
            return isinstance(node, Text)
        if test.node_type == "comment":
            return isinstance(node, Comment)
    return False


def _descendants_or_self(node: NodeLike) -> Iterator[NodeLike]:
    if isinstance(node, AttributeNode):
        yield node
        return
    if isinstance(node, Element):
        yield from node.iter()
    else:
        yield node


def _siblings(test: ast.Expression, node: NodeLike,
              forward: bool) -> Iterator[NodeLike]:
    if isinstance(node, AttributeNode) or node.parent is None:
        return
    siblings = node.parent.children
    index = node.index_in_parent()
    candidates = siblings[index + 1:] if forward else reversed(siblings[:index])
    for sibling in candidates:
        if _test_matches(test, sibling):
            yield sibling


def _parent_of(node: NodeLike) -> Optional[Element]:
    if isinstance(node, AttributeNode):
        return node.owner
    return node.parent


def _document_root(node: NodeLike) -> Element:
    if isinstance(node, AttributeNode):
        node = node.owner
    top = node.root()
    if not isinstance(top, Element):
        raise XPathTypeError("context node is not attached to an element tree")
    return top


def _document_order(nodes: list[NodeLike]) -> list[NodeLike]:
    """Sort a merged node-set into document order."""
    if len(nodes) < 2:
        return nodes
    roots = {id(_document_root(n)) for n in nodes}
    if len(roots) > 1:
        # Nodes from different documents: keep first-seen order.
        return nodes
    root = _document_root(nodes[0])
    ranking = root.order_index()
    fallback = len(ranking)

    def order_key(node: NodeLike):
        if isinstance(node, AttributeNode):
            return ranking.get((id(node.owner), node.name), fallback)
        return ranking.get(id(node), fallback)

    return sorted(nodes, key=order_key)


# -- public helpers used by repro.xpath ------------------------------------------------------------


def context_for(target: Union[Document, NodeLike]) -> Context:
    """Build an evaluation context rooted at a document or node."""
    if isinstance(target, Document):
        return Context(node=target.root)
    return Context(node=target)
