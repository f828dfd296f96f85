"""Abstract syntax tree for the XPath 1.0 subset.

Every node knows how to render itself back to XPath text via ``str()``;
the query-rewriting layer relies on this to serialise rewritten identity
queries, so rendering must produce a string that re-parses to an
equivalent tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

# Axis names used by the evaluator.
CHILD = "child"
DESCENDANT = "descendant"
DESCENDANT_OR_SELF = "descendant-or-self"
SELF = "self"
PARENT = "parent"
ATTRIBUTE = "attribute"
ANCESTOR = "ancestor"
ANCESTOR_OR_SELF = "ancestor-or-self"
FOLLOWING_SIBLING = "following-sibling"
PRECEDING_SIBLING = "preceding-sibling"


class Expression:
    """Base class for every AST node."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A quoted string literal."""

    value: str

    def __str__(self) -> str:
        if "'" not in self.value:
            return f"'{self.value}'"
        return f'"{self.value}"'


@dataclass(frozen=True)
class Number(Expression):
    """A numeric literal (always a float internally)."""

    value: float

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class NameTest(Expression):
    """A node test matching elements/attributes by name; '*' is wildcard."""

    name: str

    def matches(self, tag: str) -> bool:
        return self.name == "*" or self.name == tag

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NodeTypeTest(Expression):
    """``text()``, ``node()`` or ``comment()`` node tests."""

    node_type: str  # 'text' | 'node' | 'comment'

    def __str__(self) -> str:
        return f"{self.node_type}()"


@dataclass(frozen=True)
class Step(Expression):
    """One location step: axis, node test, and zero or more predicates."""

    axis: str
    test: Expression  # NameTest or NodeTypeTest
    predicates: tuple = ()

    def __str__(self) -> str:
        if self.axis == ATTRIBUTE:
            base = f"@{self.test}"
        elif self.axis == CHILD:
            base = str(self.test)
        elif self.axis == SELF and isinstance(self.test, NodeTypeTest) \
                and self.test.node_type == "node":
            base = "."
        elif self.axis == PARENT and isinstance(self.test, NodeTypeTest) \
                and self.test.node_type == "node":
            base = ".."
        else:
            base = f"{self.axis}::{self.test}"
        return base + "".join(f"[{p}]" for p in self.predicates)


@dataclass(frozen=True)
class LocationPath(Expression):
    """A (possibly absolute) sequence of steps."""

    absolute: bool
    steps: tuple

    def __str__(self) -> str:
        rendered: list[str] = []
        for step in self.steps:
            if (
                step.axis == DESCENDANT_OR_SELF
                and isinstance(step.test, NodeTypeTest)
                and step.test.node_type == "node"
                and not step.predicates
            ):
                # This is the expansion of '//'; re-abbreviate it.
                rendered.append("")
                continue
            rendered.append(str(step))
        body = "/".join(rendered)
        if self.absolute:
            return "/" + body
        return body


@dataclass(frozen=True)
class FilterExpression(Expression):
    """A primary expression with predicates and an optional trailing path.

    Covers forms like ``(//book)[1]/title``.
    """

    primary: Expression
    predicates: tuple = ()
    path: Optional[LocationPath] = None

    def __str__(self) -> str:
        text = f"({self.primary})" if not isinstance(
            self.primary, (Literal, Number, FunctionCall)) else str(self.primary)
        text += "".join(f"[{p}]" for p in self.predicates)
        if self.path is not None:
            text += "/" + str(self.path)
        return text


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to one of the core library functions."""

    name: str
    args: tuple = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator: or, and, = != < <= > >=, + - * div mod, |."""

    op: str
    left: Expression
    right: Expression

    def __str__(self) -> str:
        if self.op == "|":
            return f"{self.left} | {self.right}"
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Negate(Expression):
    """Unary minus."""

    operand: Expression

    def __str__(self) -> str:
        return f"-{self.operand}"


def descendant_anchor() -> Step:
    """The step '//' expands to: descendant-or-self::node()."""
    return Step(DESCENDANT_OR_SELF, NodeTypeTest("node"))


def path(*steps: Step, absolute: bool = True) -> LocationPath:
    """Convenience constructor for a location path."""
    return LocationPath(absolute, tuple(steps))


def equals(left: Expression, right: Expression) -> BinaryOp:
    """Convenience constructor for an equality comparison."""
    return BinaryOp("=", left, right)
