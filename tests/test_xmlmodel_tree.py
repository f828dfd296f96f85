"""Unit tests for the XML tree model (repro.xmlmodel.tree)."""

import gc
import pickle
import sys

import pytest

from repro.datasets import bibliography
from repro.xmlmodel import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    XMLNameError,
    XMLTreeError,
    document_order_key,
    parse,
    serialize,
    validate_name,
)


def build_sample() -> Document:
    """<db><book publisher="mkp"><title>T1</title><year>1998</year></book>
    <book publisher="acm"><title>T2</title></book></db>"""
    db = Element("db")
    book1 = db.add_child("book", attributes={"publisher": "mkp"})
    book1.add_child("title", text="T1")
    book1.add_child("year", text="1998")
    book2 = db.add_child("book", attributes={"publisher": "acm"})
    book2.add_child("title", text="T2")
    return Document(db)


class TestValidateName:
    def test_accepts_simple_names(self):
        for name in ("db", "book", "a1", "_x", "ns:tag", "with-dash", "dot.ted"):
            assert validate_name(name) == name

    def test_rejects_empty(self):
        with pytest.raises(XMLNameError):
            validate_name("")

    def test_rejects_leading_digit(self):
        with pytest.raises(XMLNameError):
            validate_name("1abc")

    def test_rejects_spaces(self):
        with pytest.raises(XMLNameError):
            validate_name("a b")

    def test_rejects_bare_xml(self):
        with pytest.raises(XMLNameError):
            validate_name("xml")

    def test_allows_xml_prefixed(self):
        assert validate_name("xml:lang") == "xml:lang"

    def test_rejects_non_string(self):
        with pytest.raises(XMLNameError):
            validate_name(42)  # type: ignore[arg-type]


class TestElementConstruction:
    def test_tag_validated(self):
        with pytest.raises(XMLNameError):
            Element("not a name")

    def test_text_shortcut(self):
        el = Element("title", text="DB Design")
        assert el.text == "DB Design"

    def test_attributes_stringified(self):
        el = Element("year", attributes={"value": 1998})  # type: ignore[dict-item]
        assert el.get_attribute("value") == "1998"

    def test_children_iterable(self):
        el = Element("book", children=[Element("title"), Text("x")])
        assert len(el.children) == 2

    def test_attribute_name_validated(self):
        el = Element("a")
        with pytest.raises(XMLNameError):
            el.set_attribute("bad name", "v")


class TestChildManipulation:
    def test_append_sets_parent(self):
        parent = Element("db")
        child = Element("book")
        parent.append(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_rejects_attached_node(self):
        parent = Element("db")
        child = parent.add_child("book")
        other = Element("db2")
        with pytest.raises(XMLTreeError):
            other.append(child)

    def test_append_rejects_non_node(self):
        with pytest.raises(TypeError):
            Element("db").append("raw string")  # type: ignore[arg-type]

    def test_insert_at_position(self):
        parent = Element("db")
        first = parent.add_child("a")
        parent.insert(0, Element("b"))
        assert parent.children[1] is first
        assert parent.children[0].tag == "b"  # type: ignore[union-attr]

    def test_remove_detaches(self):
        parent = Element("db")
        child = parent.add_child("book")
        parent.remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_remove_foreign_child_raises(self):
        with pytest.raises(XMLTreeError):
            Element("db").remove(Element("book"))

    def test_replace_preserves_position(self):
        parent = Element("db")
        parent.add_child("a")
        old = parent.add_child("b")
        parent.add_child("c")
        new = Element("B")
        parent.replace(old, new)
        assert [c.tag for c in parent.child_elements()] == ["a", "B", "c"]
        assert old.parent is None

    def test_clear_children(self):
        parent = Element("db")
        kids = [parent.add_child("x") for _ in range(3)]
        parent.clear_children()
        assert parent.children == []
        assert all(k.parent is None for k in kids)

    def test_detach_is_idempotent(self):
        node = Element("x")
        assert node.detach() is node


class TestNavigation:
    def test_ancestors(self):
        doc = build_sample()
        title = doc.root.child_elements("book")[0].find("title")
        tags = [a.tag for a in title.ancestors()]
        assert tags == ["book", "db"]

    def test_root(self):
        doc = build_sample()
        title = doc.root.child_elements("book")[0].find("title")
        assert title.root() is doc.root

    def test_index_in_parent(self):
        doc = build_sample()
        books = doc.root.child_elements("book")
        assert books[0].index_in_parent() == 0
        assert books[1].index_in_parent() == 1

    def test_index_in_parent_detached_raises(self):
        with pytest.raises(XMLTreeError):
            Element("x").index_in_parent()


class TestTextHandling:
    def test_direct_text_only(self):
        el = Element("a", text="hello")
        el.add_child("b", text="world")
        assert el.text == "hello"
        assert el.string_value() == "helloworld"

    def test_set_text_replaces(self):
        el = Element("year", text="1998")
        el.set_text("1999")
        assert el.text == "1999"
        assert sum(isinstance(c, Text) for c in el.children) == 1

    def test_set_text_preserves_element_children(self):
        el = Element("mixed", text="note: ")
        child = el.add_child("b", text="bold")
        el.set_text("replaced")
        assert child.parent is el
        assert el.text == "replaced"

    def test_text_type_checked(self):
        with pytest.raises(TypeError):
            Text(123)  # type: ignore[arg-type]


class TestTraversal:
    def test_iter_preorder(self):
        doc = build_sample()
        tags = [n.tag for n in doc.iter_elements()]
        assert tags == ["db", "book", "title", "year", "book", "title"]

    def test_iter_elements_by_tag(self):
        doc = build_sample()
        assert len(list(doc.iter_elements("book"))) == 2
        assert len(list(doc.iter_elements("title"))) == 2
        assert list(doc.iter_elements("missing")) == []

    def test_child_elements_filter(self):
        doc = build_sample()
        assert len(doc.root.child_elements("book")) == 2
        assert doc.root.child_elements("title") == []

    def test_find_and_find_text(self):
        doc = build_sample()
        book = doc.root.find("book")
        assert book is not None
        assert book.find_text("title") == "T1"
        assert book.find_text("missing", "dflt") == "dflt"

    def test_is_leaf(self):
        doc = build_sample()
        book = doc.root.find("book")
        assert not book.is_leaf()
        assert book.find("title").is_leaf()


#: Every way to change an element's children, applied to the sample root.
CHILD_MUTATIONS = {
    "append": lambda db: db.append(Element("book")),
    "add_child": lambda db: db.add_child("title", text="T3"),
    "insert": lambda db: db.insert(0, Element("title")),
    "remove": lambda db: db.remove(db.children[0]),
    "detach": lambda db: db.children[-1].detach(),
    "replace": lambda db: db.replace(db.children[0], Element("year")),
    "clear_children": lambda db: db.clear_children(),
    "set_text": lambda db: db.set_text("loose"),
}


class TestChildIndexFollowsMutations:
    TAGS = ("book", "title", "year", "missing")

    @pytest.mark.parametrize("mutate", list(CHILD_MUTATIONS.values()),
                             ids=list(CHILD_MUTATIONS))
    def test_lookups_match_a_fresh_scan(self, mutate):
        db = build_sample().root
        db.add_child("title", text="T0")
        for tag in self.TAGS:
            db.children_by_tag(tag)  # build the index before the change
        mutate(db)
        for tag in self.TAGS:
            scan = [child for child in db.children
                    if isinstance(child, Element) and child.tag == tag]
            assert db.children_by_tag(tag) == scan
            assert db.find(tag) is (scan[0] if scan else None)


class TestPath:
    def test_positional_paths(self):
        doc = build_sample()
        books = doc.root.child_elements("book")
        assert books[0].path() == "/db/book[1]"
        assert books[1].path() == "/db/book[2]"
        assert books[0].find("year").path() == "/db/book[1]/year[1]"

    def test_root_path(self):
        assert Element("db").path() == "/db"


class TestEquality:
    def test_structural_equality(self):
        assert build_sample().equals(build_sample())

    def test_attribute_difference(self):
        a, b = build_sample(), build_sample()
        b.root.find("book").set_attribute("publisher", "other")
        assert not a.equals(b)

    def test_text_difference(self):
        a, b = build_sample(), build_sample()
        b.root.find("book").find("title").set_text("changed")
        assert not a.equals(b)

    def test_whitespace_insensitive(self):
        a = Element("db")
        a.add_child("x", text="1")
        b = Element("db")
        b.append(Text("\n  "))
        b.add_child("x", text="1")
        b.append(Text("\n"))
        assert a.equals(b)

    def test_child_order_matters(self):
        a = Element("db", children=[Element("x"), Element("y")])
        b = Element("db", children=[Element("y"), Element("x")])
        assert not a.equals(b)

    def test_cross_type(self):
        assert not Text("a").equals(Comment("a"))
        assert not Element("a").equals(Text("a"))

    def test_deep_chain_equals_its_copy(self):
        depth = 100_000
        root = deepest = Element("d")
        for _ in range(depth - 1):
            deepest = deepest.add_child("d")
        deepest.append(Text("x"))
        doc = Document(root)
        assert doc.equals(doc.copy())
        changed = doc.copy()
        node = changed.root
        while node.children and isinstance(node.children[0], Element):
            node = node.children[0]
        node.set_text("y")
        assert not doc.equals(changed)
        assert not changed.equals(doc)


class TestCopy:
    def test_deep_copy_is_detached_and_equal(self):
        doc = build_sample()
        clone = doc.copy()
        assert clone.equals(doc)
        assert clone.root is not doc.root

    def test_copy_independent(self):
        doc = build_sample()
        clone = doc.copy()
        clone.root.find("book").find("title").set_text("mutated")
        assert doc.root.find("book").find_text("title") == "T1"

    def test_element_copy_clears_parent(self):
        doc = build_sample()
        book = doc.root.find("book")
        clone = book.copy()
        assert clone.parent is None


class TestOtherNodes:
    def test_comment_rejects_double_dash(self):
        with pytest.raises(XMLTreeError):
            Comment("a--b")

    def test_pi_target_validated(self):
        with pytest.raises(XMLNameError):
            ProcessingInstruction("bad target")

    def test_pi_equality(self):
        assert ProcessingInstruction("t", "d").equals(ProcessingInstruction("t", "d"))
        assert not ProcessingInstruction("t", "d").equals(
            ProcessingInstruction("t", "e"))

    def test_document_requires_element_root(self):
        with pytest.raises(TypeError):
            Document(Text("x"))  # type: ignore[arg-type]


class TestDocumentOrder:
    def test_document_order_key(self):
        doc = build_sample()
        key = document_order_key(doc)
        nodes = list(doc.iter_elements())
        ranks = [key(n) for n in nodes]
        assert ranks == sorted(ranks)

    def test_foreign_node_sorts_last(self):
        doc = build_sample()
        key = document_order_key(doc)
        foreign = Element("zzz")
        assert key(foreign) > key(doc.root)

    def test_count_elements(self):
        assert build_sample().count_elements() == 6

    def test_repr_smoke(self):
        doc = build_sample()
        assert "db" in repr(doc)
        assert "Text" in repr(Text("hello"))
        assert "Comment" in repr(Comment("c"))
        assert "book" in repr(doc.root.find("book"))


#: A 100-book bibliography with a comment and a processing instruction
#: inside the root, so every node kind is in the tree.
SAMPLE_XML = serialize(bibliography.generate_document(
    bibliography.BibliographyConfig(books=100, editors=4, seed=7))).replace(
    "<db>", "<db><!-- c --><?keep data?>", 1)


def _garbage_after(build) -> int:
    """Objects the cyclic collector frees once ``build()``'s tree is
    dropped, with the collector off while it is built and dropped."""
    gc.collect()
    gc.disable()
    try:
        build()
        return gc.collect()
    finally:
        gc.enable()


class TestTreesFreedByReferenceCounting:
    """The parent link is weak, so a dropped tree is freed by reference
    counting and leaves the cyclic collector nothing to find."""

    def test_parsed_document(self):
        assert _garbage_after(lambda: parse(SAMPLE_XML)) == 0

    def test_copy(self):
        document = parse(SAMPLE_XML)
        assert _garbage_after(document.copy) == 0

    def test_pickle_round_trip(self):
        document = parse(SAMPLE_XML)
        assert _garbage_after(
            lambda: pickle.loads(pickle.dumps(document))) == 0

    def test_tree_built_by_hand(self):
        def build():
            db = Element("db", attributes={"v": "1"}, text="lead")
            book = db.append(Element("book", children=[Element("year")]))
            db.insert(0, Comment("c"))
            title = book.add_child("title", text="T")
            book.replace(title, Element("title", text="U"))
            book.set_text("tail")
            return Document(db)
        assert _garbage_after(build) == 0


class TestParentLinks:
    def test_every_child_points_at_its_element(self):
        document = parse(SAMPLE_XML)
        for tree in (document, document.copy(),
                     pickle.loads(pickle.dumps(document))):
            assert tree.root.parent is None
            for element in tree.iter_elements():
                for child in element.children:
                    assert child.parent is element

    def test_node_of_a_freed_tree_has_no_parent(self):
        """Documented: ``.parent`` is weak, so hold the document (or its
        root) while navigating up from its nodes."""
        title = parse("<db><book><title>T</title></book></db>") \
            .root.find("book").find("title")
        assert title.parent is None
        assert title.text == "T"
        assert list(title.ancestors()) == []


class TestPickling:
    def test_deep_document_round_trips(self):
        depth = 100_000
        assert sys.getrecursionlimit() < depth
        text = "<d>" * depth + "x" + "</d>" * depth
        back = pickle.loads(pickle.dumps(parse(text)))
        assert serialize(back) == text

    def test_document_round_trips_with_every_node_kind(self):
        document = parse(SAMPLE_XML)
        back = pickle.loads(pickle.dumps(document))
        assert back.equals(document)
        assert serialize(back) == SAMPLE_XML

    def test_pickling_a_node_ships_its_subtree_only(self):
        document = parse(SAMPLE_XML)
        book = document.root.find("book")
        clone = pickle.loads(pickle.dumps(book))
        assert clone.parent is None
        assert clone.equals(book)
        assert len(pickle.dumps(book)) < len(pickle.dumps(document)) / 10

    def test_leaf_nodes_round_trip(self):
        for node in (Text("t"), Comment("c"),
                     ProcessingInstruction("p", "d")):
            Element("holder").append(node)
            back = pickle.loads(pickle.dumps(node))
            assert back.equals(node)
            assert back.parent is None
