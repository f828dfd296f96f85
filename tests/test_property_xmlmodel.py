"""Property-based tests for the XML substrate (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.xmlmodel import (
    Document,
    Element,
    Text,
    canonicalize,
    parse,
    pretty,
    semantically_equal,
    serialize,
)

# -- strategies ------------------------------------------------------------

# The bare name "xml" (any case) is reserved: the tree rejects it.
tag_names = st.from_regex(
    r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True,
).filter(lambda name: name.lower() != "xml")
attr_names = tag_names
# XML 1.0 character data: printable unicode without control chars.
text_values = st.text(
    alphabet=st.characters(
        codec="utf-8",
        exclude_categories=("Cs", "Cc", "Co"),
    ),
    max_size=40,
)


@st.composite
def elements(draw, depth=2):
    tag = draw(tag_names)
    attrs = draw(st.dictionaries(attr_names, text_values, max_size=3))
    element = Element(tag, attributes=attrs)
    if depth > 0:
        children = draw(st.lists(
            st.one_of(
                text_values.map(Text),
                elements(depth=depth - 1),
            ),
            max_size=3,
        ))
        for child in children:
            element.append(child)
    else:
        value = draw(text_values)
        if value:
            element.append(Text(value))
    return element


documents = elements().map(Document)


# -- properties ------------------------------------------------------------


class TestSerialisationRoundTrip:
    @given(documents)
    @settings(max_examples=120, deadline=None)
    def test_parse_serialize_identity(self, document):
        """parse(serialize(d)) is structurally equal to d."""
        again = parse(serialize(document))
        assert again.equals(document)

    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_serialize_is_stable(self, document):
        """serialize is a fixpoint after one round trip."""
        once = serialize(parse(serialize(document)))
        twice = serialize(parse(once))
        assert once == twice

    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_pretty_preserves_structure(self, document):
        """pretty() output re-parses to a semantically equal document.

        (Whitespace-only text is formatting, so compare canonically.)
        """
        again = parse(pretty(document))
        assert canonicalize(again) == canonicalize(document)


class TestCopySemantics:
    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_copy_equals_original(self, document):
        assert document.copy().equals(document)

    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_copy_is_independent(self, document):
        clone = document.copy()
        clone.root.set_attribute("mutation", "x")
        assert "mutation" not in document.root.attributes


class TestCanonicalForm:
    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_canonical_attribute_order_invariance(self, document):
        """Reversing attribute insertion order never changes the form."""
        clone = document.copy()
        for element in clone.iter_elements():
            items = list(element.attributes.items())
            element.attributes.clear()
            for name, value in reversed(items):
                element.attributes[name] = value
        assert semantically_equal(clone, document)

    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_canonical_is_deterministic(self, document):
        assert canonicalize(document) == canonicalize(document.copy())


class TestTraversalInvariants:
    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_parent_links_consistent(self, document):
        for node in document.iter():
            if isinstance(node, Element):
                for child in node.children:
                    assert child.parent is node

    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_iter_count_matches_recursive_count(self, document):
        def count(element):
            return 1 + sum(
                count(c) for c in element.children
                if isinstance(c, Element))
        assert document.count_elements() == count(document.root)

    @given(documents)
    @settings(max_examples=60, deadline=None)
    def test_paths_unique_and_resolvable(self, document):
        from repro.xpath import select
        paths = [el.path() for el in document.iter_elements()]
        assert len(paths) == len(set(paths))
        for element in document.iter_elements():
            assert select(document, element.path()) == [element]
