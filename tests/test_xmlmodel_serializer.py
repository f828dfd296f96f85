"""Unit tests for serialisation and canonical form (repro.xmlmodel)."""

import pytest

from repro.xmlmodel import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    canonicalize,
    content_digest,
    parse,
    pretty,
    semantically_equal,
    serialize,
    write_file,
)


class TestSerialize:
    def test_empty_element(self):
        assert serialize(Element("db")) == "<db/>"

    def test_attribute_escaping(self):
        el = Element("a", attributes={"x": 'va"l&<'})
        assert serialize(el) == '<a x="va&quot;l&amp;&lt;"/>'

    def test_text_escaping(self):
        el = Element("a", text="a&b<c>d")
        assert serialize(el) == "<a>a&amp;b&lt;c&gt;d</a>"

    def test_newline_in_attribute_escaped(self):
        el = Element("a", attributes={"x": "line1\nline2"})
        out = serialize(el)
        assert "&#10;" in out
        assert parse(out).root.get_attribute("x") == "line1\nline2"

    def test_xml_declaration(self):
        out = serialize(Document(Element("db")), xml_declaration=True)
        assert out.startswith('<?xml version="1.0"')

    def test_comment_and_pi(self):
        el = Element("a", children=[Comment("c"), ProcessingInstruction("t", "d")])
        assert serialize(el) == "<a><!--c--><?t d?></a>"

    def test_document_prolog(self):
        doc = Document(Element("db"), prolog=[Comment("hdr")])
        assert serialize(doc) == "<!--hdr--><db/>"

    def test_cr_in_text_escaped(self):
        doc = parse(serialize(Element("a", text="x\ry")))
        assert doc.root.text == "x\ry"
        assert serialize(Element("a", text="x\ry")) == "<a>x&#13;y</a>"

    def test_cr_in_attribute_escaped(self):
        el = Element("a", attributes={"v": "x\ry"})
        assert serialize(el) == '<a v="x&#13;y"/>'
        assert parse(serialize(el)).root.get_attribute("v") == "x\ry"


class TestPretty:
    def test_indents_children(self):
        doc = parse("<db><book><title>X</title></book></db>")
        out = pretty(doc)
        assert "<db>\n" in out
        assert "  <book>\n" in out
        assert "    <title>X</title>\n" in out

    def test_leaf_text_inline(self):
        assert pretty(Element("t", text="v")) == "<t>v</t>\n"

    def test_empty_element(self):
        assert pretty(Element("t")) == "<t/>\n"

    def test_pretty_reparses_equal(self):
        doc = parse("<db><book a='1'><t>x</t><u>y</u></book></db>")
        again = parse(pretty(doc))
        assert doc.equals(again)

    def test_declaration(self):
        assert pretty(Element("a"), xml_declaration=True).startswith("<?xml")

    def test_comment_and_pi_lines(self):
        el = Element("a", children=[Comment("c"), ProcessingInstruction("p", "d")])
        out = pretty(el)
        assert "<!--c-->" in out
        assert "<?p d?>" in out

    def test_epilog_emitted(self):
        """Regression: trailing comments/PIs used to vanish on pretty()."""
        doc = Document(Element("db"),
                       epilog=[Comment("tail"),
                               ProcessingInstruction("p", "d")])
        out = pretty(doc)
        assert out.index("<db/>") < out.index("<!--tail-->")
        assert "<?p d?>" in out

    def test_deep_chain_pretty_prints(self):
        # Deeper than the recursion limit; not 100,000 deep, because
        # indentation makes the output quadratic in depth.
        depth = 1500
        text = ("<db>" + "<n a='1'>" * depth + "<leaf>x</leaf>"
                + "</n>" * depth + "<tail/></db>")
        doc = parse(text)
        again = parse(pretty(doc), strip_whitespace=True)
        assert serialize(again) == serialize(doc)


class TestWriteFile:
    def test_write_pretty(self, tmp_path):
        path = tmp_path / "out.xml"
        write_file(str(path), Element("db", text="x"))
        content = path.read_text(encoding="utf-8")
        assert content.startswith("<?xml")
        assert "<db>x</db>" in content

    def test_write_compact(self, tmp_path):
        path = tmp_path / "out.xml"
        write_file(str(path), Element("db"), pretty_print=False)
        assert path.read_text(encoding="utf-8").endswith("<db/>")


class TestCanonical:
    def test_attribute_order_invariant(self):
        a = parse('<a x="1" y="2"/>')
        b = parse('<a y="2" x="1"/>')
        assert canonicalize(a) == canonicalize(b)

    def test_whitespace_invariant(self):
        a = parse("<db><x>1</x></db>")
        b = parse("<db>\n   <x>1</x>\n</db>")
        assert semantically_equal(a, b)

    def test_internal_whitespace_collapsed(self):
        a = parse("<x>two  words</x>")
        b = parse("<x>two words</x>")
        assert semantically_equal(a, b)

    def test_comments_ignored(self):
        a = parse("<db><!--noise--><x>1</x></db>")
        b = parse("<db><x>1</x></db>")
        assert semantically_equal(a, b)

    def test_content_difference_detected(self):
        a = parse("<x>1</x>")
        b = parse("<x>2</x>")
        assert not semantically_equal(a, b)
        assert content_digest(a) != content_digest(b)

    def test_digest_stable(self):
        doc = parse('<a x="1"><b>t</b></a>')
        assert content_digest(doc) == content_digest(doc.copy())
        assert len(content_digest(doc)) == 64

    def test_element_order_significant(self):
        a = parse("<db><x>1</x><y>2</y></db>")
        b = parse("<db><y>2</y><x>1</x></db>")
        assert not semantically_equal(a, b)
