"""In-memory XML tree model.

This is the data substrate for the whole WmXML reproduction: a small,
explicit DOM-like node hierarchy.  It deliberately supports the
data-centric subset of XML that the paper manipulates:

* elements with string attributes,
* text content (including mixed content),
* comments and processing instructions (kept so round-trips are lossless),
* a document node that owns exactly one root element.

Nodes are identity-hashable (so they can live in sets and dicts while the
tree is being rewritten) and offer *structural* equality through
:meth:`Node.equals` rather than ``__eq__``.

A node holds its parent through a weak reference, so a tree's only
strong references point down: a dropped document is freed by
reference counting as soon as its last reference goes, without
waiting for the cyclic collector.  Hold the :class:`Document` (or its
root) while working with its nodes; a node whose tree has been freed
reads ``parent is None``.

Nothing here knows about watermarking; higher layers (XPath, semantics,
core) build on these primitives.
"""

from __future__ import annotations

import re
import weakref
from typing import Callable, Iterable, Iterator, Optional

from repro.xmlmodel.errors import XMLNameError, XMLTreeError

#: XML 1.0 Name production, restricted to the ASCII-plus-common-unicode
#: subset this system emits.  Colons are allowed (treated as opaque name
#: characters; this stack does not implement namespace processing).
_NAME_RE = re.compile(r"^[A-Za-z_:][\w.\-:]*$", re.UNICODE)


def validate_name(name: str) -> str:
    """Return ``name`` if it is a legal XML tag/attribute name.

    Raises :class:`XMLNameError` otherwise.  Centralised so every
    constructor enforces the same rule.
    """
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise XMLNameError(f"illegal XML name: {name!r}")
    if name[:3].lower() == "xml" and name.lower().startswith("xml"):
        # XML reserves names beginning with 'xml' but real-world documents
        # use xml:lang etc.; we allow them and only reject the bare 'xml'.
        if name.lower() == "xml":
            raise XMLNameError("the name 'xml' is reserved")
    return name


class Node:
    """Common behaviour for every tree node.

    Subclasses: :class:`Element`, :class:`Text`, :class:`Comment`,
    :class:`ProcessingInstruction`.  A :class:`Document` is a separate
    root container, not a :class:`Node`.
    """

    __slots__ = ("_parent", "__weakref__")

    def __init__(self) -> None:
        self._parent: Optional[weakref.ref] = None

    @property
    def parent(self) -> Optional["Element"]:
        """The containing element, or None when detached or freed."""
        ref = self._parent
        return None if ref is None else ref()

    @parent.setter
    def parent(self, element: Optional["Element"]) -> None:
        self._parent = None if element is None else weakref.ref(element)

    # -- identity & structure -------------------------------------------------

    def equals(self, other: "Node") -> bool:
        """Structural equality (same shape and content, not same object)."""
        raise NotImplementedError

    def copy(self) -> "Node":
        """Deep copy with ``parent`` cleared on the returned node."""
        raise NotImplementedError

    # -- navigation ------------------------------------------------------------

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestor elements from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the topmost node reachable through ``parent`` links."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def index_in_parent(self) -> int:
        """Position of this node among its parent's children.

        Raises :class:`XMLTreeError` when the node is detached.
        """
        parent = self.parent
        if parent is None:
            raise XMLTreeError("node has no parent")
        for index, child in enumerate(parent.children):
            if child is self:
                return index
        raise XMLTreeError("node not found among parent's children")

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op when detached)."""
        parent = self.parent
        if parent is not None:
            parent.children.remove(self)
            parent._child_index = None
            self._parent = None
        return self

    # -- string value ------------------------------------------------------------

    def string_value(self) -> str:
        """The XPath string-value of the node."""
        raise NotImplementedError


class Text(Node):
    """A run of character data (includes CDATA content after parsing)."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        super().__init__()
        if not isinstance(value, str):
            raise TypeError(f"text value must be str, got {type(value).__name__}")
        self.value = value

    @classmethod
    def _blank(cls, value: str) -> "Text":
        """Fast construction for the parser: value already known to be str."""
        node = cls.__new__(cls)
        node._parent = None
        node.value = value
        return node

    def __reduce__(self):
        return Text, (self.value,)

    def equals(self, other: Node) -> bool:
        return isinstance(other, Text) and other.value == self.value

    def copy(self) -> "Text":
        return Text(self.value)

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        preview = self.value if len(self.value) <= 30 else self.value[:27] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An XML comment; preserved so serialisation round-trips are lossless."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        super().__init__()
        if "--" in value:
            raise XMLTreeError("comment content must not contain '--'")
        self.value = value

    def __reduce__(self):
        return Comment, (self.value,)

    def equals(self, other: Node) -> bool:
        return isinstance(other, Comment) and other.value == self.value

    def copy(self) -> "Comment":
        return Comment(self.value)

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"Comment({self.value!r})"


class ProcessingInstruction(Node):
    """A processing instruction ``<?target data?>``."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str = "") -> None:
        super().__init__()
        self.target = validate_name(target)
        self.data = data

    def __reduce__(self):
        return ProcessingInstruction, (self.target, self.data)

    def equals(self, other: Node) -> bool:
        return (
            isinstance(other, ProcessingInstruction)
            and other.target == self.target
            and other.data == self.data
        )

    def copy(self) -> "ProcessingInstruction":
        return ProcessingInstruction(self.target, self.data)

    def string_value(self) -> str:
        return self.data

    def __repr__(self) -> str:
        return f"ProcessingInstruction({self.target!r}, {self.data!r})"


#: Shared empty result for tag lookups with no matches (never mutated).
_NO_ELEMENTS: list = []


class Element(Node):
    """An XML element: tag, ordered attributes, ordered children.

    Attributes are stored in a plain dict (insertion-ordered in Python 3.7+)
    mapping attribute name to string value.  Children may be any
    :class:`Node` subclass; mixed content is supported.  Change
    ``children`` only through :meth:`append`, :meth:`insert` and
    :meth:`Node.detach` (or the helpers built on them), which reset the
    child-tag index.
    """

    __slots__ = ("tag", "attributes", "children", "_child_index")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[Iterable[Node]] = None,
        text: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.tag = validate_name(tag)
        #: tag -> direct element children; built on first lookup, reset
        #: to None whenever ``children`` changes.
        self._child_index: Optional[dict[str, list["Element"]]] = None
        self.attributes: dict[str, str] = {}
        if attributes:
            for name, value in attributes.items():
                self.set_attribute(name, value)
        self.children: list[Node] = []
        if text is not None:
            self.append(Text(text))
        if children:
            for child in children:
                self.append(child)

    @classmethod
    def _blank(cls, tag: str) -> "Element":
        """Fast construction for a name already known to be valid.

        The scanner's tokenizer admits only names that also satisfy
        :func:`validate_name` (and checks the reserved bare ``xml``
        itself), and :meth:`copy` clones names already in a tree, so
        this skips re-validation and the keyword plumbing of
        ``__init__`` while producing the identical initial state.
        """
        element = cls.__new__(cls)
        element._parent = None
        element.tag = tag
        element.attributes = {}
        element.children = []
        element._child_index = None
        return element

    # -- attribute access ------------------------------------------------------

    def set_attribute(self, name: str, value: str) -> None:
        """Set attribute ``name`` to ``value`` (stringified)."""
        validate_name(name)
        if not isinstance(value, str):
            value = str(value)
        self.attributes[name] = value

    def get_attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the value of attribute ``name`` or ``default``."""
        return self.attributes.get(name, default)

    # -- child manipulation ------------------------------------------------------

    def append(self, node: Node) -> Node:
        """Attach ``node`` as the last child and return it."""
        if not isinstance(node, Node):
            raise TypeError(f"expected Node, got {type(node).__name__}")
        if node.parent is not None:
            raise XMLTreeError("node already has a parent; detach it first")
        node.parent = self
        self.children.append(node)
        self._child_index = None
        return node

    def insert(self, index: int, node: Node) -> Node:
        """Attach ``node`` at ``index`` among the children and return it."""
        if node.parent is not None:
            raise XMLTreeError("node already has a parent; detach it first")
        node.parent = self
        self.children.insert(index, node)
        self._child_index = None
        return node

    def remove(self, node: Node) -> Node:
        """Detach ``node`` (must be a direct child) and return it."""
        if node.parent is not self:
            raise XMLTreeError("node is not a child of this element")
        return node.detach()

    def replace(self, old: Node, new: Node) -> Node:
        """Swap direct child ``old`` for ``new`` in place."""
        index = old.index_in_parent()
        if old.parent is not self:
            raise XMLTreeError("node is not a child of this element")
        old.detach()
        return self.insert(index, new)

    def clear_children(self) -> None:
        """Detach all children."""
        for child in list(self.children):
            child.detach()

    # -- convenience constructors ---------------------------------------------

    def add_child(self, tag: str, text: Optional[str] = None,
                  attributes: Optional[dict[str, str]] = None) -> "Element":
        """Create, append and return a child element in one call."""
        return self.append(Element(tag, attributes=attributes, text=text))  # type: ignore[return-value]

    # -- text access ------------------------------------------------------------

    @property
    def text(self) -> str:
        """Concatenation of *direct* text children (not descendants)."""
        return "".join(
            child.value for child in self.children if isinstance(child, Text)
        )

    def set_text(self, value: str) -> None:
        """Replace all direct text children with a single text node.

        Element children are preserved in place; only text nodes change.
        This is the primitive the watermark embedder uses to perturb a
        leaf value.
        """
        kept = [c for c in self.children if not isinstance(c, Text)]
        for child in list(self.children):
            if isinstance(child, Text):
                child.detach()
        if kept:
            # Re-insert the new text node first to keep leaf semantics simple.
            self.insert(0, Text(value))
        else:
            self.append(Text(value))

    def string_value(self) -> str:
        """XPath string-value: every descendant text node, in order."""
        children = self.children
        # Fast path for the dominant leaf shape: a single text child.
        if len(children) == 1 and isinstance(children[0], Text):
            return children[0].value
        parts: list[str] = []
        stack: list[Node] = list(reversed(children))
        while stack:
            node = stack.pop()
            if isinstance(node, Text):
                parts.append(node.value)
            elif isinstance(node, Element):
                stack.extend(reversed(node.children))
        return "".join(parts)

    # -- traversal ------------------------------------------------------------

    def iter(self) -> Iterator[Node]:
        """Pre-order traversal of this element and all descendants."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def iter_elements(self, tag: Optional[str] = None) -> Iterator["Element"]:
        """Pre-order traversal of descendant-or-self elements.

        With ``tag``, only elements with that tag are yielded.
        """
        for node in self.iter():
            if isinstance(node, Element) and (tag is None or node.tag == tag):
                yield node

    def _tag_index(self) -> dict[str, list["Element"]]:
        """tag -> direct element children, built on first use."""
        index = self._child_index
        if index is None:
            index = {}
            for child in self.children:
                if isinstance(child, Element):
                    index.setdefault(child.tag, []).append(child)
            self._child_index = index
        return index

    def children_by_tag(self, tag: str) -> list["Element"]:
        """Direct element children with ``tag`` (shared indexed list).

        The returned list is the index's own — callers must not mutate
        it.  Use :meth:`child_elements` for an owned copy.
        """
        return self._tag_index().get(tag, _NO_ELEMENTS)

    def child_elements(self, tag: Optional[str] = None) -> list["Element"]:
        """Direct element children, optionally filtered by ``tag``."""
        if tag is not None:
            return list(self._tag_index().get(tag, ()))
        return [
            child for child in self.children if isinstance(child, Element)
        ]

    def find(self, tag: str) -> Optional["Element"]:
        """First direct child element with ``tag``, or None."""
        matches = self._tag_index().get(tag)
        return matches[0] if matches else None

    def find_text(self, tag: str, default: Optional[str] = None) -> Optional[str]:
        """Text of the first direct child with ``tag``, or ``default``."""
        child = self.find(tag)
        if child is None:
            return default
        return child.text

    def order_index(self) -> dict:
        """Document-order ranks for this subtree, from a fresh walk.

        Maps ``id(node) -> rank`` for every node under (and including)
        this element, and ``(id(element), attribute_name) -> rank`` for
        attribute slots (attributes rank directly after their owner, as
        the XPath data model requires).
        """
        ranking: dict = {}
        rank = 0
        for node in self.iter():
            ranking[id(node)] = rank
            rank += 1
            if isinstance(node, Element):
                for name in node.attributes:
                    ranking[(id(node), name)] = rank
                    rank += 1
        return ranking

    # -- structure --------------------------------------------------------------

    def is_leaf(self) -> bool:
        """True when the element has no element children."""
        return not any(isinstance(child, Element) for child in self.children)

    def path(self) -> str:
        """Absolute physical path like ``/db/book[2]/author[1]``.

        Positions are 1-based among same-tag siblings, matching XPath
        conventions.  Used by the Agrawal–Kiernan baseline (which is
        exactly why that baseline breaks under reorganization).
        """
        segments: list[str] = []
        node: Element = self
        while True:
            parent = node.parent
            if parent is None:
                segments.append(f"/{node.tag}")
                break
            siblings = [c for c in parent.children
                        if isinstance(c, Element) and c.tag == node.tag]
            position = siblings.index(node) + 1
            segments.append(f"/{node.tag}[{position}]")
            node = parent
        return "".join(reversed(segments))

    # -- equality & copying ------------------------------------------------------

    def equals(self, other: Node) -> bool:
        """Deep structural equality: tag, attributes, ordered children.

        Walks an explicit stack of element pairs, not recursion, so any
        depth the scanner parses also compares.
        """
        stack: list[tuple[Element, Node]] = [(self, other)]
        while stack:
            element, counterpart = stack.pop()
            if not isinstance(counterpart, Element) \
                    or counterpart.tag != element.tag \
                    or counterpart.attributes != element.attributes:
                return False
            mine = _significant_children(element)
            theirs = _significant_children(counterpart)
            if len(mine) != len(theirs):
                return False
            for a, b in zip(mine, theirs):
                if isinstance(a, Element):
                    stack.append((a, b))
                elif not a.equals(b):
                    return False
        return True

    def copy(self) -> "Element":
        # An explicit stack, not recursion, so any depth the scanner
        # parses also copies.  The children of one element share its
        # one weak reference.
        blank = Element._blank
        clone = blank(self.tag)
        clone.attributes = dict(self.attributes)
        stack = [(self, clone)]
        while stack:
            source, target = stack.pop()
            children = target.children
            parent = weakref.ref(target)
            for child in source.children:
                if isinstance(child, Element):
                    copied = blank(child.tag)
                    copied.attributes = dict(child.attributes)
                    stack.append((child, copied))
                else:
                    copied = child.copy()
                copied._parent = parent
                children.append(copied)
        return clone

    def __reduce__(self):
        # One flat pre-order list from an explicit stack, so any depth
        # the scanner parses also pickles; an element becomes (tag,
        # attributes, child count).  The parent link is not followed:
        # pickling a node ships its subtree only.
        flat: list = []
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                children = node.children
                flat.append((node.tag, node.attributes, len(children)))
                stack.extend(reversed(children))
            else:
                flat.append(node)
        return _unflatten, (flat,)

    def __repr__(self) -> str:
        return f"Element({self.tag!r}, attrs={len(self.attributes)}, children={len(self.children)})"


def _unflatten(flat: list) -> Element:
    """Rebuild the tree :meth:`Element.__reduce__` flattened."""
    blank = Element._blank
    root = None
    #: [children list, weak ref to their element, children still due]
    open_elements: list[list] = []
    for item in flat:
        count = 0
        if isinstance(item, tuple):
            tag, attributes, count = item
            node = blank(tag)
            node.attributes = attributes
        else:
            node = item
        if open_elements:
            frame = open_elements[-1]
            frame[0].append(node)
            node._parent = frame[1]
            frame[2] -= 1
            if not frame[2]:
                open_elements.pop()
        else:
            root = node
        if count:
            open_elements.append([node.children, weakref.ref(node), count])
    return root


def _significant_children(element: Element) -> list[Node]:
    """Children that matter for structural equality.

    Two normalisations, both mandated by the XML/XPath data model:

    * adjacent text nodes are coalesced (markup cannot represent the
      boundary between them, so ``Text('a'), Text('b')`` and
      ``Text('ab')`` are the same content);
    * whitespace-only text runs between elements are formatting noise,
      so two documents differing only in indentation compare equal.
    """
    significant: list[Node] = []
    pending_text: list[str] = []

    def flush() -> None:
        if not pending_text:
            return
        value = "".join(pending_text)
        pending_text.clear()
        if value.strip():
            significant.append(Text(value))

    for child in element.children:
        if isinstance(child, Text):
            pending_text.append(child.value)
            continue
        flush()
        significant.append(child)
    flush()
    return significant


class Document:
    """A parsed XML document: optional prolog nodes plus one root element."""

    __slots__ = ("root", "prolog", "epilog")

    def __init__(
        self,
        root: Element,
        prolog: Optional[list[Node]] = None,
        epilog: Optional[list[Node]] = None,
    ) -> None:
        if not isinstance(root, Element):
            raise TypeError("document root must be an Element")
        self.root = root
        self.prolog: list[Node] = list(prolog or [])
        self.epilog: list[Node] = list(epilog or [])

    def iter(self) -> Iterator[Node]:
        """Pre-order traversal of every node under the root."""
        return self.root.iter()

    def iter_elements(self, tag: Optional[str] = None) -> Iterator[Element]:
        """All elements in document order, optionally filtered by tag."""
        return self.root.iter_elements(tag)

    def equals(self, other: "Document") -> bool:
        """Structural equality of the root elements (prolog ignored)."""
        return isinstance(other, Document) and self.root.equals(other.root)

    def copy(self) -> "Document":
        return Document(
            self.root.copy(),
            prolog=[node.copy() for node in self.prolog],
            epilog=[node.copy() for node in self.epilog],
        )

    def count_elements(self) -> int:
        """Total number of elements in the document."""
        return sum(1 for _ in self.iter_elements())

    def __repr__(self) -> str:
        return f"Document(root={self.root.tag!r}, elements={self.count_elements()})"


def document_order_key(document: Document) -> Callable[[Node], int]:
    """Return a function mapping nodes to their document-order rank.

    The ranks come from one walk of the tree (:meth:`Element.order_index`)
    when this is called, so a key reflects the tree as it was then.
    """
    order = document.root.order_index()
    total = len(order)

    def key(node: Node) -> int:
        return order.get(id(node), total)

    return key
