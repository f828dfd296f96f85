"""Exceptions raised by the XML data-model substrate.

The whole reproduction builds on a from-scratch XML stack; this module
holds the error hierarchy shared by the tree model, the parser and the
serializers so that callers can catch one family of exceptions.
"""

from __future__ import annotations

from repro.errors import WmXMLError


class XMLError(WmXMLError):
    """Base class for every error raised by :mod:`repro.xmlmodel`."""

    code = "xml-error"


class XMLSyntaxError(XMLError):
    """A document failed to parse.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position so tooling (and tests) can point at the exact character.
    """

    code = "xml-syntax"

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # string) against the three-argument constructor and explodes;
        # a parse error raised in a pool worker's batch step must
        # survive the trip back to the caller.
        return (XMLSyntaxError, (self.message, self.line, self.column))


class XMLTreeError(XMLError):
    """An illegal tree manipulation, e.g. attaching a node to two parents."""

    code = "xml-tree"


class XMLNameError(XMLError):
    """A tag or attribute name violates XML naming rules."""

    code = "xml-name"
