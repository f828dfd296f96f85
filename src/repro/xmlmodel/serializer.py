"""Serialisation of the XML tree model back to markup.

Two styles are provided:

* :func:`serialize` — compact, loss-preserving output (the inverse of the
  parser when ``strip_whitespace=False``),
* :func:`pretty` — indented output for humans, used by the CLI and the
  examples.

Escaping follows the XML 1.0 rules: ``&``, ``<`` (and ``>`` after ``]]``)
in character data; ``&``, ``<`` and the active quote in attribute values.
Carriage returns are emitted as ``&#13;`` in both contexts: a literal
``\r`` in output would be folded to ``\n`` by any conformant parser's
end-of-line normalization (XML 1.0 §2.11, including ours), so the
character reference is the only representation that survives a
round-trip.  Newlines and tabs in attribute values are likewise
referenced (``&#10;``/``&#9;``) to survive attribute-value
normalization.
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.xmlmodel.tree import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    escaped = (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )
    if "\r" in escaped:
        escaped = escaped.replace("\r", "&#13;")
    return escaped


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted serialisation."""
    escaped = (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )
    if "\r" in escaped:
        escaped = escaped.replace("\r", "&#13;")
    return escaped


def _serialize_node(node: Node, parts: list[str]) -> None:
    if isinstance(node, Text):
        parts.append(escape_text(node.value))
    elif isinstance(node, Comment):
        parts.append(f"<!--{node.value}-->")
    elif isinstance(node, ProcessingInstruction):
        data = f" {node.data}" if node.data else ""
        parts.append(f"<?{node.target}{data}?>")
    elif isinstance(node, Element):
        _serialize_element(node, parts)
    else:  # pragma: no cover - the node hierarchy is closed
        raise TypeError(f"cannot serialise {type(node).__name__}")


def _serialize_element(element: Element, parts: list[str]) -> None:
    # Hot path of ``serialize`` (the benchmark's ``xmlmodel.serialize_ms``).
    # Escaping stays on the chained-``str.replace`` form deliberately:
    # clean strings (the overwhelming majority in data-centric XML)
    # pass through as the *same* object after a few C-level scans,
    # which measures ~4x faster than a hoisted ``str.maketrans``
    # translation table on representative values.  The structural wins
    # here are dispatch avoidance: the dominant ``<tag>text</tag>``
    # leaf renders as one append with no per-child function call, and
    # mixed children are type-switched inline instead of going through
    # ``_serialize_node``.  Open elements wait on an explicit stack of
    # (remaining children, end tag), not on recursion, so any depth the
    # scanner parses also serialises; the bottom frame holds ``element``
    # itself and closes with nothing.
    append = parts.append
    open_elements: list[tuple[Iterator[Node], str]] = [(iter((element,)), "")]
    while open_elements:
        remaining, end_tag = open_elements[-1]
        for node in remaining:
            kind = type(node)
            if kind is Text:
                append(escape_text(node.value))
                continue
            if kind is not Element:
                _serialize_node(node, parts)
                continue
            tag = node.tag
            attributes = node.attributes
            if attributes:
                open_parts = [f"<{tag}"]
                for name, value in attributes.items():
                    open_parts.append(f' {name}="{escape_attribute(value)}"')
                open_tag = "".join(open_parts)
            else:
                open_tag = f"<{tag}"
            children = node.children
            if not children:
                append(open_tag + "/>")
            elif len(children) == 1 and type(children[0]) is Text:
                append(f"{open_tag}>{escape_text(children[0].value)}</{tag}>")
            else:
                append(open_tag + ">")
                open_elements.append((iter(children), f"</{tag}>"))
                break
        else:
            open_elements.pop()
            append(end_tag)


def serialize(node: Union[Document, Node], xml_declaration: bool = False) -> str:
    """Serialise a document or subtree to a compact XML string."""
    parts: list[str] = []
    if isinstance(node, Document):
        if xml_declaration:
            parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        for item in node.prolog:
            _serialize_node(item, parts)
        _serialize_node(node.root, parts)
        for item in node.epilog:
            _serialize_node(item, parts)
    else:
        if xml_declaration:
            parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        _serialize_node(node, parts)
    return "".join(parts)


def _pretty_node(node: Node, parts: list[str], depth: int, indent: str) -> None:
    # An explicit stack, not recursion, so any depth the scanner parses
    # also pretty-prints.  An entry is either a (node, depth) still to
    # render or the closing-tag line of an element whose children sit
    # above it on the stack.
    pending: list[Union[tuple[Node, int], str]] = [(node, depth)]
    while pending:
        entry = pending.pop()
        if isinstance(entry, str):
            parts.append(entry)
            continue
        node, depth = entry
        pad = indent * depth
        if isinstance(node, Text):
            stripped = node.value.strip()
            if stripped:
                parts.append(f"{pad}{escape_text(stripped)}\n")
            continue
        if isinstance(node, Comment):
            parts.append(f"{pad}<!--{node.value}-->\n")
            continue
        if isinstance(node, ProcessingInstruction):
            data = f" {node.data}" if node.data else ""
            parts.append(f"{pad}<?{node.target}{data}?>\n")
            continue
        assert isinstance(node, Element)
        open_tag = [f"{pad}<{node.tag}"]
        for name, value in node.attributes.items():
            open_tag.append(f' {name}="{escape_attribute(value)}"')
        significant = [
            child
            for child in node.children
            if not (isinstance(child, Text) and not child.value.strip())
        ]
        if not significant:
            open_tag.append("/>\n")
            parts.append("".join(open_tag))
            continue
        has_text = any(isinstance(child, Text) for child in significant)
        if has_text and all(isinstance(child, Text) for child in significant):
            # Text-only element: inline the *full* text run, including
            # any whitespace-only nodes between significant runs — they
            # are part of the content once the runs coalesce.
            text = "".join(child.value for child in node.children
                           if isinstance(child, Text))
            open_tag.append(f">{escape_text(text)}</{node.tag}>\n")
            parts.append("".join(open_tag))
            continue
        if has_text:
            # Mixed content: indentation would inject whitespace between
            # text runs and change the content, so emit the body
            # compactly.
            open_tag.append(">")
            for child in node.children:
                _serialize_node(child, open_tag)
            open_tag.append(f"</{node.tag}>\n")
            parts.append("".join(open_tag))
            continue
        open_tag.append(">\n")
        parts.append("".join(open_tag))
        pending.append(f"{pad}</{node.tag}>\n")
        pending.extend((child, depth + 1) for child in reversed(significant))


def pretty(node: Union[Document, Node], indent: str = "  ",
           xml_declaration: bool = False) -> str:
    """Serialise with indentation for human consumption.

    Whitespace-only text nodes are dropped and leaf text is inlined, so
    this form is *not* byte-level round-trippable for mixed content; use
    :func:`serialize` for fidelity.
    """
    parts: list[str] = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    if isinstance(node, Document):
        for item in node.prolog:
            _pretty_node(item, parts, 0, indent)
        _pretty_node(node.root, parts, 0, indent)
        for item in node.epilog:
            _pretty_node(item, parts, 0, indent)
    else:
        _pretty_node(node, parts, 0, indent)
    return "".join(parts)


def write_file(path: str, node: Union[Document, Node], pretty_print: bool = True) -> None:
    """Write a document or subtree to ``path`` as UTF-8 XML."""
    text = pretty(node, xml_declaration=True) if pretty_print else serialize(
        node, xml_declaration=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
