"""Tests for the extension features: indexed execution, DTD import/
export, error-correcting codes, and fingerprinting with collusion."""

import pytest

from repro.api import Fingerprinter
from repro.attacks import (
    CollusionAttack,
    ReductionAttack,
    ReorganizationAttack,
    ValueAlterationAttack,
)
from repro.core import (
    Hamming74Code,
    RepetitionCode,
    Watermark,
    WmXMLDecoder,
    WmXMLEncoder,
    choose_code,
)
from repro.datasets import bibliography, jobs
from repro.rewriting import LogicalExecutor, LogicalQuery, compile_logical
from repro.semantics import (
    SchemaError,
    infer_schema,
    is_valid,
    parse_dtd,
    render_dtd,
)
from repro.xpath import compile_xpath

CONFIG = bibliography.BibliographyConfig(books=60, editors=8, seed=51)


@pytest.fixture(scope="module")
def doc():
    return bibliography.generate_document(CONFIG)


# ---------------------------------------------------------------------------
# Indexed logical execution
# ---------------------------------------------------------------------------

class TestLogicalExecutor:
    def test_matches_xpath_on_clean_document(self, doc):
        shape = bibliography.book_shape()
        executor = LogicalExecutor(doc, shape)
        rows = shape.shred(doc)
        for row in rows[:20]:
            query = LogicalQuery.create("year", {"title": row["title"]})
            via_xpath = set(compile_xpath(
                compile_logical(query, shape)).select_strings(doc))
            via_index = set(executor.execute_strings(query))
            assert via_index == via_xpath

    def test_matches_xpath_on_attacked_document(self, doc):
        shape = bibliography.book_shape()
        attacked = ValueAlterationAttack(0.4, seed=9).apply(doc).document
        executor = LogicalExecutor(attacked, shape)
        for row in shape.shred(doc)[:20]:
            query = LogicalQuery.create("year", {"title": row["title"]})
            via_xpath = set(compile_xpath(
                compile_logical(query, shape)).select_strings(attacked))
            via_index = set(executor.execute_strings(query))
            assert via_index == via_xpath

    def test_fd_query_multiplicity(self, doc):
        shape = bibliography.book_shape()
        executor = LogicalExecutor(doc, shape)
        fd = bibliography.semantic_fd()
        group = fd.duplicated_groups(doc)[0]
        query = LogicalQuery.create("publisher",
                                    {"editor": group.lhs[0]})
        assert len(executor.execute(query)) == len(group)

    def test_unknown_target_raises(self, doc):
        from repro.semantics import RecordError
        executor = LogicalExecutor(doc, bibliography.book_shape())
        with pytest.raises(RecordError):
            executor.execute(LogicalQuery.create("salary", {"title": "X"}))

    def test_no_conditions_returns_all(self, doc):
        executor = LogicalExecutor(doc, bibliography.book_shape())
        nodes = executor.execute(LogicalQuery("year", ()))
        assert len(nodes) == 60

    def test_decoder_indexed_parity(self, doc):
        scheme = bibliography.default_scheme(2)
        wm = Watermark.from_message("IDX")
        result = WmXMLEncoder(scheme, "idx-key").embed(doc, wm)
        decoder = WmXMLDecoder("idx-key")
        reduced = ReductionAttack(0.6, seed=3).apply(result.document).document
        scan = decoder.detect(reduced, result.record, scheme.shape,
                              expected=wm)
        fast = decoder.detect(reduced, result.record, scheme.shape,
                              expected=wm, indexed=True)
        assert (scan.votes_total, scan.votes_matching) == \
            (fast.votes_total, fast.votes_matching)
        assert scan.detected == fast.detected

    def test_decoder_indexed_after_reorganization(self, doc):
        scheme = bibliography.default_scheme(2)
        wm = Watermark.from_message("IDX")
        result = WmXMLEncoder(scheme, "idx-key").embed(doc, wm)
        target = bibliography.publisher_shape()
        stolen = ReorganizationAttack(scheme.shape, target).apply(
            result.document).document
        outcome = WmXMLDecoder("idx-key").detect(
            stolen, result.record, target, expected=wm, indexed=True)
        assert outcome.detected
        assert outcome.match_ratio == 1.0


# ---------------------------------------------------------------------------
# DTD import / export
# ---------------------------------------------------------------------------

class TestDTD:
    DTD = """
    <!-- root element: db -->
    <!ELEMENT db (book*)>
    <!ELEMENT book (title, (author|writer)+, editor?, year)>
    <!ATTLIST book publisher CDATA #REQUIRED
                   isbn CDATA #IMPLIED>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT author (#PCDATA)>
    <!ELEMENT writer (#PCDATA)>
    <!ELEMENT editor (#PCDATA)>
    <!ELEMENT year (#PCDATA)>
    <!-- wmxml:type tag=year type=year -->
    """

    def test_parse_structure(self):
        schema = parse_dtd(self.DTD)
        assert schema.root == "db"
        book = schema.declaration("book")
        assert book.child_tags() == {"title", "author", "writer",
                                     "editor", "year"}
        assert book.attribute("publisher").required
        assert not book.attribute("isbn").required

    def test_type_hint_applied(self):
        schema = parse_dtd(self.DTD)
        from repro.semantics import LeafType
        assert schema.declaration("year").leaf_type is LeafType.YEAR

    def test_parsed_schema_validates_paper_document(self):
        from repro.datasets.paper import figure1_db1
        schema = parse_dtd(self.DTD)
        assert is_valid(schema, figure1_db1())

    def test_choice_group(self):
        schema = parse_dtd(self.DTD)
        assert schema.matches_children(
            "book", ["title", "writer", "writer", "editor", "year"])
        assert schema.matches_children(
            "book", ["title", "author", "year"])
        assert not schema.matches_children("book", ["title", "year"])

    def test_render_parse_fixpoint(self, doc):
        schema = infer_schema(doc)
        text = render_dtd(schema)
        again = parse_dtd(text)
        assert is_valid(again, doc)
        assert render_dtd(again) == text

    def test_jobs_roundtrip(self):
        feed = jobs.generate_document(jobs.JobsConfig(jobs=30))
        schema = infer_schema(feed)
        assert is_valid(parse_dtd(render_dtd(schema)), feed)

    def test_mixed_content_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!ELEMENT a (#PCDATA|b)*><!ELEMENT b (#PCDATA)>")

    def test_nested_groups_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!ELEMENT a ((b,c)|d)>"
                      "<!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>"
                      "<!ELEMENT d (#PCDATA)>")

    def test_empty_dtd_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!-- nothing here -->")

    def test_empty_element_supported(self):
        schema = parse_dtd("<!ELEMENT x EMPTY>")
        assert schema.declaration("x").is_leaf


# ---------------------------------------------------------------------------
# Error-correcting codes
# ---------------------------------------------------------------------------

class TestRepetitionCode:
    def test_roundtrip(self):
        code = RepetitionCode(3)
        bits = [1, 0, 1, 1, 0]
        assert code.decode(code.encode(bits)) == bits

    def test_corrects_minority_errors(self):
        code = RepetitionCode(5)
        word = code.encode([1, 0])
        word[0] ^= 1  # two errors in the first block
        word[1] ^= 1
        assert code.decode(word) == [1, 0]

    def test_erasure_tolerance(self):
        code = RepetitionCode(3)
        word = list(code.encode([1]))
        soft = [None, 1, 1]
        assert code.decode(soft) == [1]

    def test_tie_is_none(self):
        code = RepetitionCode(2)
        assert code.decode([0, 1]) == [None]
        assert code.decode([None, None]) == [None]

    def test_length_check(self):
        with pytest.raises(ValueError):
            RepetitionCode(3).decode([1, 0])

    def test_factor_validated(self):
        with pytest.raises(ValueError):
            RepetitionCode(0)


class TestHamming74:
    def test_roundtrip(self):
        code = Hamming74Code()
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        decoded = code.decode(code.encode(bits))
        assert decoded[:len(bits)] == bits

    def test_corrects_any_single_error(self):
        code = Hamming74Code()
        bits = [1, 0, 1, 1]
        word = code.encode(bits)
        for position in range(7):
            damaged = list(word)
            damaged[position] ^= 1
            assert code.decode(damaged)[:4] == bits, position

    def test_single_erasure_recovered(self):
        code = Hamming74Code()
        bits = [0, 1, 1, 0]
        word = list(code.encode(bits))
        for position in range(7):
            soft = list(word)
            soft[position] = None
            assert code.decode(soft)[:4] == bits, position

    def test_double_erasure_undecodable(self):
        code = Hamming74Code()
        word = list(code.encode([1, 1, 1, 1]))
        word[0] = None
        word[3] = None
        assert code.decode(word) == [None] * 4

    def test_padding(self):
        code = Hamming74Code()
        assert code.encoded_length(5) == 14  # two blocks

    def test_message_helpers(self):
        code = Hamming74Code()
        wm = Watermark.from_message("Hi")
        encoded = code.encode_watermark(wm)
        assert code.decode_message(list(encoded.bits)) == "Hi"

    def test_choose_code(self):
        assert isinstance(choose_code("repetition", factor=2),
                          RepetitionCode)
        assert isinstance(choose_code("hamming74"), Hamming74Code)
        with pytest.raises(ValueError):
            choose_code("turbo")


class TestECCWithPipeline:
    def test_blind_recovery_with_ecc_beats_raw(self, doc):
        """ECC-encoded blind recovery survives deletion that breaks raw."""
        code = RepetitionCode(3)
        message = "EC"
        raw = Watermark.from_message(message)
        encoded = code.encode_watermark(raw)
        scheme = bibliography.default_scheme(1)
        result = WmXMLEncoder(scheme, "ecc-key").embed(doc, encoded)
        attacked = ReductionAttack(0.55, seed=8).apply(
            result.document).document
        outcome = WmXMLDecoder("ecc-key").detect(
            attacked, result.record, scheme.shape)
        assert code.decode_message(outcome.recovered_bits) == message


# ---------------------------------------------------------------------------
# Fingerprinting and collusion
# ---------------------------------------------------------------------------

class TestFingerprinting:
    @pytest.fixture(scope="class")
    def fingerprinter(self, doc):
        scheme = bibliography.default_scheme(2)
        fingerprinter = Fingerprinter(scheme, "master-key", alpha=1e-3)
        copies = {
            name: fingerprinter.issue(doc, name)
            for name in ("alice", "bob", "carol")
        }
        return fingerprinter, copies

    def test_copies_differ(self, fingerprinter):
        _, copies = fingerprinter
        from repro.xmlmodel import serialize
        texts = {serialize(copy.document) for copy in copies.values()}
        assert len(texts) == 3

    def test_leak_traced_to_the_right_recipient(self, fingerprinter):
        tracer, copies = fingerprinter
        trace = tracer.trace(copies["bob"].document)
        assert trace.prime_suspect == "bob"
        assert trace.accused == ["bob"]

    def test_trace_survives_attack_on_leak(self, fingerprinter):
        tracer, copies = fingerprinter
        leaked = ValueAlterationAttack(0.15, seed=4).apply(
            copies["carol"].document).document
        trace = tracer.trace(leaked)
        assert trace.prime_suspect == "carol"

    def test_trace_after_reorganization(self, fingerprinter, doc):
        tracer, copies = fingerprinter
        target = bibliography.publisher_shape()
        stolen = ReorganizationAttack(bibliography.book_shape(),
                                      target).apply(
            copies["alice"].document).document
        trace = tracer.trace(stolen, shape=target)
        assert trace.prime_suspect == "alice"

    def test_unrelated_document_accuses_nobody(self, fingerprinter):
        tracer, _ = fingerprinter
        other = bibliography.generate_document(
            bibliography.BibliographyConfig(books=60, editors=8, seed=99))
        trace = tracer.trace(other)
        assert trace.accused == []
        assert "no issued fingerprint" in str(trace)

    def test_collusion_of_two_traced(self, fingerprinter):
        tracer, copies = fingerprinter
        attack = CollusionAttack(
            [copies["alice"].document, copies["bob"].document],
            strategy="majority", seed=2)
        merged = attack.apply(copies["alice"].document).document
        trace = tracer.trace(merged)
        # Both colluders remain detectable; the non-colluder is not.
        assert set(trace.accused) <= {"alice", "bob"}
        assert trace.accused  # at least one colluder caught
        assert "carol" not in trace.accused

    def test_collusion_needs_two_copies(self, fingerprinter):
        _, copies = fingerprinter
        with pytest.raises(ValueError):
            CollusionAttack([copies["alice"].document])

    def test_empty_recipient_rejected(self, doc):
        fingerprinter = Fingerprinter(bibliography.default_scheme(2), "m")
        with pytest.raises(ValueError):
            fingerprinter.issue(doc, "")
