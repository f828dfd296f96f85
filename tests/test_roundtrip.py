"""Round-trip guarantees: ``parse(serialize(doc))`` is the same document.

The watermarking system's detection-side guarantees only hold if the
XML substrate round-trips documents faithfully — a document written and
re-read must carry the same content bit for bit.  This suite locks that
property three ways:

* the three dataset profiles (the documents the system actually ships),
* adversarial hand-picked cases: epilog nodes, CR/CRLF content, CDATA,
  mixed content, attribute edge characters,
* hypothesis-generated random documents, including carriage returns.

Structural equality is :meth:`Node.equals`; byte fidelity is the
``serialize`` fixpoint (serialising the reparsed tree reproduces the
exact same string).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datasets import bibliography, jobs, library
from repro.xmlmodel import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    parse,
    parse_many,
    pretty,
    serialize,
    write_file,
)


def assert_roundtrips(document: Document) -> str:
    """Serialise, reparse, and require equality both ways; return text."""
    text = serialize(document)
    reparsed = parse(text)
    assert reparsed.root.equals(document.root)
    assert serialize(reparsed) == text
    return text


# -- dataset profiles ------------------------------------------------------------


PROFILE_DOCUMENTS = {
    "bibliography": lambda: bibliography.generate_document(
        bibliography.BibliographyConfig(books=60, editors=6, seed=11)),
    "jobs": lambda: jobs.generate_document(jobs.JobsConfig(jobs=60, seed=11)),
    "library": lambda: library.generate_document(
        library.LibraryConfig(items=40, seed=11)),
}


@pytest.mark.parametrize("profile", sorted(PROFILE_DOCUMENTS))
def test_profile_documents_roundtrip(profile):
    document = PROFILE_DOCUMENTS[profile]()
    assert_roundtrips(document)


@pytest.mark.parametrize("profile", sorted(PROFILE_DOCUMENTS))
def test_profile_documents_pretty_reparse_equal(profile):
    document = PROFILE_DOCUMENTS[profile]()
    again = parse(pretty(document), strip_whitespace=True)
    assert again.root.equals(document.root)


def test_parse_many_matches_parse_one_by_one():
    texts = [serialize(build()) for build in PROFILE_DOCUMENTS.values()]
    batch = parse_many(texts)
    assert [serialize(document) for document in batch] == texts


# -- adversarial cases ------------------------------------------------------------


class TestEpilog:
    def _document(self):
        return Document(
            Element("db", children=[Element("x", text="1")]),
            prolog=[Comment(" header ")],
            epilog=[Comment(" trailer "), ProcessingInstruction("audit", "v=1")],
        )

    def test_serialize_preserves_epilog(self):
        text = serialize(self._document())
        assert text.endswith("<!-- trailer --><?audit v=1?>")
        reparsed = parse(text)
        assert len(reparsed.epilog) == 2
        assert isinstance(reparsed.epilog[0], Comment)
        assert isinstance(reparsed.epilog[1], ProcessingInstruction)

    def test_pretty_emits_epilog(self):
        out = pretty(self._document())
        assert "<!-- trailer -->" in out
        assert "<?audit v=1?>" in out
        # epilog renders after the root element closes
        assert out.index("</db>") < out.index("<!-- trailer -->")

    def test_pretty_reparse_keeps_epilog(self):
        reparsed = parse(pretty(self._document()), strip_whitespace=True)
        assert [type(node) for node in reparsed.epilog] == [
            Comment, ProcessingInstruction]

    def test_write_file_pretty_keeps_epilog(self, tmp_path):
        path = tmp_path / "doc.xml"
        write_file(str(path), self._document())
        content = path.read_text(encoding="utf-8")
        assert "<!-- trailer -->" in content
        assert "<?audit v=1?>" in content


class TestCarriageReturns:
    def test_parser_normalizes_crlf_and_cr(self):
        doc = parse("<a>line1\r\nline2\rline3</a>")
        assert doc.root.text == "line1\nline2\nline3"

    def test_cr_in_cdata_normalized(self):
        doc = parse("<a><![CDATA[x\r\ny]]></a>")
        assert doc.root.text == "x\ny"

    def test_cr_char_reference_survives_normalization(self):
        doc = parse("<a>&#13;&#xD;</a>")
        assert doc.root.text == "\r\r"

    def test_text_cr_roundtrips_via_reference(self):
        doc = Document(Element("a", text="x\ry"))
        text = serialize(doc)
        assert "&#13;" in text
        assert parse(text).root.text == "x\ry"

    def test_attribute_cr_roundtrips_via_reference(self):
        doc = Document(Element("a", attributes={"v": "x\r\ny"}))
        text = serialize(doc)
        assert "&#13;&#10;" in text
        assert parse(text).root.get_attribute("v") == "x\r\ny"

    def test_crlf_in_attribute_source_normalized(self):
        doc = parse('<a v="x\r\ny"/>')
        assert doc.root.get_attribute("v") == "x\ny"

    def test_cr_only_document_roundtrips(self):
        document = Document(Element("a", text="\r"))
        assert_roundtrips(document)


class TestCData:
    def test_cdata_content_roundtrips_escaped(self):
        doc = parse("<a><![CDATA[<markup> & friends ]]></a>")
        assert doc.root.text == "<markup> & friends "
        assert_roundtrips(doc)

    def test_cdata_between_text_runs(self):
        doc = parse("<a>x<![CDATA[&]]>y</a>")
        assert doc.root.text == "x&y"
        assert_roundtrips(doc)


class TestMixedContent:
    def test_mixed_content_roundtrips(self):
        doc = parse("<p>lead <b>bold</b> middle <i>it</i> tail</p>")
        assert_roundtrips(doc)

    def test_mixed_with_comments_and_pis(self):
        doc = parse("<p>a<!--c-->b<?pi d?>c</p>")
        assert_roundtrips(doc)
        assert doc.root.text == "abc"

    def test_whitespace_only_runs_preserved_by_serialize(self):
        doc = parse("<p><a/>  <b/></p>")
        assert serialize(doc) == "<p><a/>  <b/></p>"


# -- generated documents ------------------------------------------------------------

# Printable unicode incl. \r, \n, \t; excludes other control chars the
# tree model does not model.  min_size=1 because a zero-length text
# node has no markup representation (``<a></a>`` reparses childless).
_content_text = st.text(
    alphabet=st.characters(
        codec="utf-8",
        exclude_categories=("Cs", "Cc", "Co"),
    ) | st.sampled_from(["\r", "\n", "\t", "&", "<", ">", '"', "'", "]"]),
    min_size=1,
    max_size=24,
)
# The bare name "xml" (any case) is reserved for tags, attributes and
# processing-instruction targets alike: the tree rejects it.
_names = st.from_regex(
    r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True,
).filter(lambda name: name.lower() != "xml")


@st.composite
def _elements(draw, depth=0):
    element = Element(draw(_names))
    for name in draw(st.lists(_names, max_size=2, unique=True)):
        element.set_attribute(name, draw(_content_text))
    children = draw(st.integers(min_value=0, max_value=3 if depth < 2 else 0))
    for _ in range(children):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            element.append(Text(draw(_content_text)))
        elif kind == 1:
            element.append(draw(_elements(depth=depth + 1)))
        elif kind == 2:
            element.append(Comment(draw(
                st.text(alphabet="abc xyz", max_size=10))))
        else:
            # Leading whitespace in PI data is consumed as the
            # target/data separator on reparse, so generate data that
            # starts with a non-space (or is empty).
            element.append(ProcessingInstruction(
                draw(_names),
                draw(st.text(alphabet="abc xyz", max_size=10)
                     .filter(lambda s: s == s.lstrip()))))
    return element


@settings(max_examples=60, deadline=None)
@given(_elements())
def test_generated_documents_roundtrip(root):
    document = Document(root)
    text = serialize(document)
    reparsed = parse(text)
    # Byte fixpoint is the strict guarantee; equals() would forgive
    # whitespace-only runs.
    assert serialize(reparsed) == text
    # And the text content seen by the watermarking layers is identical
    # after one round trip (carriage returns included).
    assert reparsed.root.string_value() == root.string_value()
    assert reparsed.root.attributes == root.attributes
