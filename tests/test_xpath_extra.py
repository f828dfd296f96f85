"""Additional XPath engine coverage: axes, mixed expressions, evaluator
corner cases not exercised by the main test files."""

import pytest

from repro.xmlmodel import Element, document_order_key, parse
from repro.xpath import (
    XPathTypeError,
    compile_xpath,
    evaluate_xpath,
    select,
    select_strings,
)

DOC = parse(
    "<library>"
    '<section name="db">'
    "<shelf><code>A1</code>"
    "<item><title>Alpha</title><pages>100</pages></item>"
    "<item><title>Beta</title><pages>250</pages></item>"
    "</shelf>"
    "<shelf><code>A2</code>"
    "<item><title>Gamma</title><pages>50</pages></item>"
    "</shelf>"
    "</section>"
    '<section name="net">'
    "<shelf><code>B1</code>"
    "<item><title>Delta</title><pages>300</pages></item>"
    "</shelf>"
    "</section>"
    "</library>"
)


class TestDeepNavigation:
    def test_multi_level_predicates(self):
        titles = select_strings(
            DOC,
            "/library/section[@name='db']/shelf[code='A1']/item/title")
        assert titles == ["Alpha", "Beta"]

    def test_descendant_with_predicate(self):
        assert select_strings(DOC, "//item[pages > 200]/title") == \
            ["Beta", "Delta"]

    def test_ancestor_or_self(self):
        items = select(DOC, "//item[title='Gamma']")
        sections = select(items[0], "ancestor-or-self::section")
        assert [s.get_attribute("name") for s in sections] == ["db"]

    def test_parent_attribute_chain(self):
        names = select_strings(DOC, "//shelf[code='B1']/../@name")
        assert names == ["net"]

    def test_double_descendant(self):
        assert len(select(DOC, "//shelf//title")) == 4

    def test_relative_descendant_from_context(self):
        section = select(DOC, "/library/section[1]")[0]
        assert len(select(section, ".//item")) == 3

    def test_self_axis_with_name(self):
        section = select(DOC, "/library/section[1]")[0]
        assert select(section, "self::section") == [section]
        assert select(section, "self::library") == []


class TestExpressionCorners:
    def test_count_over_union(self):
        value = evaluate_xpath(DOC, "count(//code | //title)")
        assert value == 7.0

    def test_sum_of_pages(self):
        assert evaluate_xpath(DOC, "sum(//pages)") == 700.0

    def test_arithmetic_with_node_sets(self):
        value = evaluate_xpath(
            DOC, "sum(//pages) div count(//item)")
        assert value == 175.0

    def test_boolean_coercion_in_predicates(self):
        # Non-empty node-set predicate keeps the node.
        assert len(select(DOC, "//shelf[item]")) == 3
        assert select(DOC, "//shelf[missing]") == []

    def test_string_functions_on_paths(self):
        value = evaluate_xpath(
            DOC, "concat(//section[1]/@name, '-', //section[2]/@name)")
        assert value == "db-net"

    def test_normalize_space_in_predicate(self):
        doc = parse("<a><b>  x  </b></a>")
        assert len(select(doc, "/a/b[normalize-space()='x']")) == 1

    def test_numeric_equality_across_types(self):
        assert evaluate_xpath(DOC, "//pages = 100") is True
        assert evaluate_xpath(DOC, "//pages = 101") is False
        assert evaluate_xpath(DOC, "100 = //pages") is True

    def test_not_equal_node_set_semantics(self):
        # '!=' is existential too: some pages differ from 100.
        assert evaluate_xpath(DOC, "//pages != 100") is True

    def test_relational_flip(self):
        assert evaluate_xpath(DOC, "400 > //pages") is True
        assert evaluate_xpath(DOC, "10 > //pages") is False

    def test_union_of_unions(self):
        nodes = select(DOC, "//code | //title | /library")
        assert nodes[0].tag == "library"  # document order

    def test_mod_and_div_precedence(self):
        assert evaluate_xpath(DOC, "7 mod 4 * 2") == 6.0

    def test_negative_positions_never_match(self):
        assert select(DOC, "//item[-1]") == []

    def test_fractional_position_never_matches(self):
        assert select(DOC, "//item[1.5]") == []


class TestEvaluatorErrors:
    def test_predicate_on_scalar(self):
        with pytest.raises(XPathTypeError):
            evaluate_xpath(DOC, "(1 + 2)[1]")

    def test_path_after_scalar(self):
        with pytest.raises(XPathTypeError):
            evaluate_xpath(DOC, "(1 + 2)/x")

    def test_union_with_scalar(self):
        with pytest.raises(XPathTypeError):
            evaluate_xpath(DOC, "//item | 3")

    def test_select_strings_on_number(self):
        with pytest.raises(XPathTypeError):
            compile_xpath("1 + 1").select(DOC)


class TestDetachedAndSubtreeContexts:
    def test_query_detached_subtree(self):
        shelf = select(DOC, "//shelf[code='A1']")[0].copy()
        # Absolute paths resolve against the subtree's own root.
        assert select_strings(shelf, "/shelf/item/title") == \
            ["Alpha", "Beta"]

    def test_position_within_subtree(self):
        shelf = select(DOC, "//shelf[code='A1']")[0]
        assert select_strings(shelf, "item[2]/title") == ["Beta"]

    def test_attribute_parent_navigation(self):
        attrs = select(DOC, "//section/@name")
        parents = select(attrs[0], "..")
        assert parents[0].tag == "section"


class TestQueriesFollowMutations:
    """``//`` and ``|`` answer for the tree as it is when they run."""

    @staticmethod
    def _texts(doc, path):
        return [node.string_value() for node in select(doc, path)]

    def test_appended_and_detached_nodes(self):
        doc = parse("<db><book><title>A</title><year>1</year></book>"
                    "<book><title>B</title></book></db>")
        first, second = doc.root.children
        assert self._texts(doc, "//title") == ["A", "B"]
        assert self._texts(doc, "//year | //title") == ["A", "1", "B"]
        foreign = Element("foreign")

        added = second.add_child("title", text="C")
        assert self._texts(doc, "//title") == ["A", "B", "C"]
        assert self._texts(doc, "//year | //title") == ["A", "1", "B", "C"]
        key = document_order_key(doc)
        ranks = [key(node) for node in doc.iter()]
        assert ranks == sorted(set(ranks))
        assert key(second) < key(added) < key(foreign)

        first.detach()
        assert self._texts(doc, "//title") == ["B", "C"]
        assert self._texts(doc, "//year | //title") == ["B", "C"]
        key = document_order_key(doc)
        assert key(first) == key(foreign)
        assert key(doc.root) < key(second) < key(added) < key(foreign)
