"""A from-scratch, well-formedness-checking XML parser.

WmXML's substrate must not depend on third-party XML libraries, so this
module implements a single-pass *scanner* over the input string: markup
boundaries are located with ``str.find``/compiled-regex tokenisation
(instead of a char-at-a-time cursor) and elements are managed on an
explicit stack (instead of recursion), so arbitrarily deep documents
parse without recursion-limit tuning.  Supported syntax:

* the XML declaration (``<?xml version=... ?>``), recorded but unused,
* ``<!DOCTYPE ...>`` declarations, skipped (including an internal subset),
* elements with attributes in single or double quotes,
* character data with the five predefined entities plus decimal and
  hexadecimal character references,
* CDATA sections, comments and processing instructions,
* well-formedness checks: tag matching, single root, unique attributes.

One correctness property of the scanner beyond raw syntax is
**end-of-line normalization** (XML 1.0 §2.11): ``\\r\\n`` and bare
``\\r`` in the input are normalised to ``\\n`` before any other
processing (including inside CDATA), exactly as a conformant processor
must.  Carriage returns that should *survive* a round-trip are
therefore serialised as ``&#13;`` (see
:mod:`repro.xmlmodel.serializer`) and come back as literal ``\\r``
through the character-reference path, which normalization leaves
alone.

Namespace prefixes are treated as opaque parts of names — the paper's
system operates on data-centric XML where no namespace processing is
required.

Errors are reported as :class:`~repro.xmlmodel.errors.XMLSyntaxError`
with 1-based line/column positions (computed on the EOL-normalised
text).

Batch parsing goes through :func:`parse_many`, which reuses one parser
for the whole batch.  (The facade's batch engine parses each text
inside its per-document step instead — in a pool worker when the
batch is pooled; see :mod:`repro.api.pipeline`.)
"""

from __future__ import annotations

import re
import weakref
from typing import Iterable, Optional

from repro.xmlmodel.errors import XMLNameError, XMLSyntaxError
from repro.xmlmodel.tree import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

#: The parser's Name production: ASCII letters/underscore/colon start,
#: then ASCII letters, digits, ``.``, ``-``, ``:``.  Deliberately the
#: same alphabet the recursive-descent engine accepted (a strict subset
#: of :func:`repro.xmlmodel.tree.validate_name`'s rule, so every name
#: the scanner admits also passes tree-level validation).
_NAME = r"[A-Za-z_:][A-Za-z0-9_.:\-]*"

_NAME_RE = re.compile(_NAME)
#: The dominant data-centric start-tag form: no attributes at all.
_SIMPLE_OPEN_RE = re.compile(rf"<({_NAME})(/?)>")
#: One attribute: mandatory leading whitespace, name, ``=``, quoted
#: value.  ``<`` is excluded from values (a well-formedness error the
#: slow path diagnoses precisely when this pattern refuses to match).
_ATTR_RE = re.compile(
    rf"[ \t\n]+({_NAME})[ \t\n]*=[ \t\n]*(\"[^<\"]*\"|'[^<']*')")
_END_TAG_RE = re.compile(rf"({_NAME})[ \t\n]*>")
#: A complete entity or character reference, terminated by ``;``.
_REFERENCE_RE = re.compile(
    rf"&(?:({_NAME})|#([0-9]+)|#[xX]([0-9a-fA-F]+));")
_DOCTYPE_DELIM_RE = re.compile(r"[\[\]>]")

_WHITESPACE = " \t\n"
_HEX_DIGITS = set("0123456789abcdefABCDEF")
_DIGITS = set("0123456789")
_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_:")


def _normalize_eol(text: str) -> str:
    """XML 1.0 §2.11 end-of-line handling: ``\\r\\n``/``\\r`` -> ``\\n``."""
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


class _Scanner:
    """One parse: the input text and the scan position."""

    __slots__ = ("text", "pos", "length", "strip_whitespace")

    def __init__(self, text: str, strip_whitespace: bool) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)
        self.strip_whitespace = strip_whitespace

    # -- errors ------------------------------------------------------------

    def error(self, message: str, pos: Optional[int] = None) -> XMLSyntaxError:
        if pos is None:
            pos = self.pos
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        return XMLSyntaxError(message, line, column)

    # -- document ------------------------------------------------------------

    def parse_document(self) -> Document:
        prolog = self._parse_misc(allow_doctype=True)
        if self.pos >= self.length or self.text[self.pos] != "<":
            raise self.error("expected root element")
        root = self._parse_tree()
        epilog = self._parse_misc(allow_doctype=False)
        self._skip_whitespace()
        if self.pos < self.length:
            raise self.error("content after document end")
        return Document(root, prolog=prolog, epilog=epilog)

    def _skip_whitespace(self) -> None:
        text, pos, length = self.text, self.pos, self.length
        while pos < length and text[pos] in _WHITESPACE:
            pos += 1
        self.pos = pos

    # -- prolog / epilog ----------------------------------------------------

    def _parse_misc(self, allow_doctype: bool) -> list[Node]:
        """Parse comments/PIs (and doctype) outside the root element."""
        nodes: list[Node] = []
        text = self.text
        while True:
            self._skip_whitespace()
            pos = self.pos
            if text.startswith("<?xml", pos) and pos == 0:
                self._skip_xml_declaration()
            elif text.startswith("<!--", pos):
                nodes.append(self._parse_comment())
            elif text.startswith("<!DOCTYPE", pos):
                if not allow_doctype:
                    raise self.error("DOCTYPE after root element")
                self._skip_doctype()
            elif text.startswith("<?", pos):
                nodes.append(self._parse_pi())
            else:
                return nodes

    def _skip_xml_declaration(self) -> None:
        end = self.text.find("?>", self.pos + 5)
        if end < 0:
            raise self.error("unterminated XML declaration",
                             pos=self.length)
        self.pos = end + 2

    def _skip_doctype(self) -> None:
        depth = 0
        scan = self.pos + len("<!DOCTYPE")
        while True:
            match = _DOCTYPE_DELIM_RE.search(self.text, scan)
            if match is None:
                raise self.error("unterminated DOCTYPE", pos=self.length)
            char = match.group()
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
                if depth < 0:
                    raise self.error("unbalanced ']' in DOCTYPE",
                                     pos=match.start())
            elif depth == 0:  # ">"
                self.pos = match.end()
                return
            scan = match.end()

    # -- the element scan loop ----------------------------------------------

    def _parse_tree(self) -> Element:
        """Scan the root element and its whole subtree in one loop."""
        text = self.text
        length = self.length
        find = text.find
        startswith = text.startswith
        simple_open = _SIMPLE_OPEN_RE.match
        blank_element = Element._blank
        blank_text = Text._blank
        strip_whitespace = self.strip_whitespace

        root_start = self.pos
        root, closed, pos = self._parse_open_tag(root_start)
        self.pos = pos
        if closed:
            return root

        #: (element, its weak reference, start offset of its ``<``, text
        #: parts, ``</tag>``).  Every child of an element gets that
        #: element's one weak reference as its parent link.
        stack: list[tuple[Element, weakref.ref, int, list[str], str]] = []
        current = root
        current_ref = weakref.ref(root)
        current_start = root_start
        parts: list[str] = []
        end_literal = f"</{root.tag}>"

        def flush_text() -> None:
            value = "".join(parts)
            del parts[:]
            if strip_whitespace and not value.strip():
                return
            node = blank_text(value)
            node._parent = current_ref
            current.children.append(node)

        while True:
            angle = find("<", pos)
            if angle < 0:
                raise self.error(f"unterminated element <{current.tag}>",
                                 pos=length)
            if angle > pos:
                chunk = text[pos:angle]
                bad = chunk.find("]]>")
                if bad >= 0:
                    raise self.error("']]>' not allowed in character data",
                                     pos=pos + bad)
                if "&" in chunk:
                    chunk = self._expand_references(chunk, pos)
                parts.append(chunk)
            after = text[angle + 1:angle + 2]
            if after == "/":
                # End tag: close the current element.  Fast path: the
                # exact ``</tag>`` literal in one startswith.
                if parts:
                    flush_text()
                if startswith(end_literal, angle):
                    pos = angle + len(end_literal)
                else:
                    match = _END_TAG_RE.match(text, angle + 2)
                    if match is None:
                        self._raise_end_tag_error(angle)
                    if match.group(1) != current.tag:
                        raise self.error(
                            f"mismatched end tag: expected </{current.tag}>, "
                            f"got </{match.group(1)}>", pos=current_start)
                    pos = match.end()
                if not stack:
                    self.pos = pos
                    return root
                (current, current_ref, current_start, parts,
                 end_literal) = stack.pop()
            elif after == "!":
                if startswith("<!--", angle):
                    if parts:
                        flush_text()
                    self.pos = angle
                    node = self._parse_comment()
                    pos = self.pos
                    node._parent = current_ref
                    current.children.append(node)
                elif startswith("<![CDATA[", angle):
                    end = find("]]>", angle + 9)
                    if end < 0:
                        raise self.error("unterminated CDATA section",
                                         pos=length)
                    parts.append(text[angle + 9:end])
                    pos = end + 3
                else:
                    raise self.error("expected a name", pos=angle + 1)
            elif after == "?":
                if parts:
                    flush_text()
                self.pos = angle
                node = self._parse_pi()
                pos = self.pos
                node._parent = current_ref
                current.children.append(node)
            else:
                # Child element.  The attribute-free form — the dominant
                # shape in data-centric documents — is recognised with a
                # single regex match, inline.
                if parts:
                    flush_text()
                match = simple_open(text, angle)
                if match is not None:
                    tag = match.group(1)
                    if len(tag) == 3 and tag.lower() == "xml":
                        raise XMLNameError("the name 'xml' is reserved")
                    child = blank_element(tag)
                    closed = match.group(2) == "/"
                    pos = match.end()
                else:
                    child, closed, pos = self._parse_open_tag(angle)
                    tag = child.tag
                child._parent = current_ref
                current.children.append(child)
                if not closed:
                    stack.append((current, current_ref, current_start,
                                  parts, end_literal))
                    current, current_start, parts = child, angle, []
                    current_ref = weakref.ref(child)
                    end_literal = f"</{tag}>"

    # -- tags ------------------------------------------------------------

    def _parse_open_tag(self, start: int) -> tuple[Element, bool, int]:
        """Parse ``<tag attr="v" ...>`` at ``start``.

        Returns ``(element, closed, position after the tag)``.
        """
        text = self.text
        match = _NAME_RE.match(text, start + 1)
        if match is None:
            raise self.error("expected a name", pos=start + 1)
        tag = match.group()
        if len(tag) == 3 and tag.lower() == "xml":
            raise XMLNameError("the name 'xml' is reserved")
        element = Element._blank(tag)
        pos = match.end()
        next_char = text[pos:pos + 1]
        if next_char == ">":
            return element, False, pos + 1
        if next_char == "/" and text[pos + 1:pos + 2] == ">":
            return element, True, pos + 2
        attributes = element.attributes
        scan = pos
        while True:
            attr = _ATTR_RE.match(text, scan)
            if attr is None:
                break
            name = attr.group(1)
            if name in attributes:
                raise self.error(f"duplicate attribute {name!r}",
                                 pos=attr.start(1))
            if len(name) == 3 and name.lower() == "xml":
                raise XMLNameError("the name 'xml' is reserved")
            raw = attr.group(2)[1:-1]
            if "&" in raw:
                raw = self._expand_references(raw, attr.start(1),
                                              error_at_base=True)
            attributes[name] = raw
            scan = attr.end()
        tail = scan
        while tail < self.length and text[tail] in _WHITESPACE:
            tail += 1
        closer = text[tail:tail + 1]
        if closer == ">":
            return element, False, tail + 1
        if closer == "/" and text[tail + 1:tail + 2] == ">":
            return element, True, tail + 2
        self._raise_attribute_error(pos)
        raise AssertionError("unreachable")  # pragma: no cover

    def _raise_end_tag_error(self, angle: int) -> None:
        """Diagnose a malformed end tag at ``angle`` (points at ``<``)."""
        match = _NAME_RE.match(self.text, angle + 2)
        if match is None:
            raise self.error("expected a name", pos=angle + 2)
        scan = match.end()
        while scan < self.length and self.text[scan] in _WHITESPACE:
            scan += 1
        raise self.error("expected '>'", pos=scan)

    def _raise_attribute_error(self, start: int) -> None:
        """Re-walk a start-tag tail the fast path refused, precisely.

        ``start`` points just past the tag name.  The fast attribute
        regex only fails on ill-formed input; this slow walk mirrors the
        recursive-descent engine's checks to raise the same error at
        the same position.
        """
        text, length = self.text, self.length
        pos = start
        seen: set[str] = set()
        while True:
            had_space = text[pos:pos + 1] in _WHITESPACE and pos < length
            while pos < length and text[pos] in _WHITESPACE:
                pos += 1
            char = text[pos:pos + 1]
            if char in ("", ">"):
                break
            if char == "/":
                if text[pos + 1:pos + 2] == ">":
                    break
                raise self.error("expected '>'", pos=pos)
            if not had_space:
                raise self.error("expected whitespace before attribute",
                                 pos=pos)
            name_pos = pos
            name_match = _NAME_RE.match(text, pos)
            if name_match is None:
                raise self.error("expected a name", pos=pos)
            name = name_match.group()
            pos = name_match.end()
            while pos < length and text[pos] in _WHITESPACE:
                pos += 1
            if text[pos:pos + 1] != "=":
                raise self.error("expected '='", pos=pos)
            pos += 1
            while pos < length and text[pos] in _WHITESPACE:
                pos += 1
            quote = text[pos:pos + 1]
            if quote not in ("'", '"'):
                raise self.error("attribute value must be quoted", pos=pos)
            end = text.find(quote, pos + 1)
            if end < 0:
                raise self.error("unterminated attribute value", pos=length)
            raw = text[pos + 1:end]
            if "<" in raw:
                raise self.error("'<' not allowed in attribute value",
                                 pos=name_pos)
            if name in seen:
                raise self.error(f"duplicate attribute {name!r}",
                                 pos=name_pos)
            self._expand_references(raw, name_pos, error_at_base=True)
            seen.add(name)
            pos = end + 1
        raise self.error("expected '>'", pos=pos)

    # -- comments / PIs ------------------------------------------------------

    def _parse_comment(self) -> Comment:
        end = self.text.find("-->", self.pos + 4)
        if end < 0:
            raise self.error("unterminated comment", pos=self.length)
        content = self.text[self.pos + 4:end]
        if "--" in content:
            raise self.error("'--' not allowed inside a comment")
        self.pos = end + 3
        return Comment(content)

    def _parse_pi(self) -> ProcessingInstruction:
        match = _NAME_RE.match(self.text, self.pos + 2)
        if match is None:
            raise self.error("expected a name", pos=self.pos + 2)
        target = match.group()
        if target.lower() == "xml":
            raise self.error(
                "processing instruction target 'xml' is reserved")
        end = self.text.find("?>", match.end())
        if end < 0:
            raise self.error("unterminated processing instruction",
                             pos=self.length)
        content = self.text[match.end():end]
        self.pos = end + 2
        return ProcessingInstruction(target, content.lstrip())

    # -- references ------------------------------------------------------------

    def _expand_references(self, raw: str, base: int,
                           error_at_base: bool = False) -> str:
        """Expand entity/char references in ``raw`` (a slice at ``base``).

        ``error_at_base`` reports every error at ``base`` itself — the
        attribute-value convention, matching the previous engine which
        anchored reference errors at the attribute name.
        """
        parts: list[str] = []
        pos = 0
        find = raw.find
        while True:
            amp = find("&", pos)
            if amp < 0:
                parts.append(raw[pos:])
                return "".join(parts)
            parts.append(raw[pos:amp])
            where = base if error_at_base else base + amp
            match = _REFERENCE_RE.match(raw, amp)
            if match is None:
                self._raise_reference_error(raw, amp, where)
            name, decimal, hexadecimal = match.group(1, 2, 3)
            if name is not None:
                try:
                    parts.append(_PREDEFINED_ENTITIES[name])
                except KeyError:
                    raise self.error(f"unknown entity &{name};",
                                     pos=where) from None
            else:
                code = (int(decimal) if decimal is not None
                        else int(hexadecimal, 16))
                if code == 0 or code > 0x10FFFF:
                    raise self.error("character reference out of range",
                                     pos=where)
                parts.append(chr(code))
            pos = match.end()

    def _raise_reference_error(self, raw: str, amp: int, where: int) -> None:
        """Say *why* a ``&...`` sequence is not a valid reference."""
        after = raw[amp + 1:amp + 2]
        if after == "#":
            scan = amp + 2
            digits = _DIGITS
            if raw[scan:scan + 1] in ("x", "X"):
                scan += 1
                digits = _HEX_DIGITS
            begin = scan
            while scan < len(raw) and raw[scan] in digits:
                scan += 1
            if scan == begin:
                raise self.error("empty character reference", pos=where)
            raise self.error("expected ';'", pos=where)
        if after and after in _NAME_START:
            name_match = _NAME_RE.match(raw, amp + 1)
            assert name_match is not None
            if raw[name_match.end():name_match.end() + 1] != ";":
                raise self.error("expected ';'", pos=where)
            raise self.error(
                f"unknown entity &{name_match.group()};", pos=where)
        raise self.error("expected a name", pos=where)


class XMLParser:
    """Scanner-based XML parser.

    Parameters
    ----------
    strip_whitespace:
        When true, text nodes consisting purely of whitespace are dropped.
        Data-centric pipelines (everything in this reproduction) set this
        to keep trees free of indentation noise; the default preserves the
        input exactly so serialisation round-trips are lossless.
    """

    def __init__(self, strip_whitespace: bool = False) -> None:
        self.strip_whitespace = strip_whitespace

    def parse(self, text: str) -> Document:
        """Parse ``text`` into a :class:`Document`."""
        if not isinstance(text, str):
            raise TypeError("parse() expects str input")
        return _Scanner(_normalize_eol(text),
                        self.strip_whitespace).parse_document()


def parse(text: str, strip_whitespace: bool = False) -> Document:
    """Parse an XML string into a :class:`Document` (module-level shortcut)."""
    return XMLParser(strip_whitespace=strip_whitespace).parse(text)


def parse_many(texts: Iterable[str],
               strip_whitespace: bool = False) -> list[Document]:
    """Parse many XML strings with one reused parser, in input order."""
    parser = XMLParser(strip_whitespace=strip_whitespace)
    return [parser.parse(text) for text in texts]


def parse_file(path: str, strip_whitespace: bool = False) -> Document:
    """Parse the XML file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), strip_whitespace=strip_whitespace)
