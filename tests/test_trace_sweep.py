"""The trace sweep prepares the suspected copy once.

A trace verifies every issued record against one suspected copy.  The
copy is shredded into one :class:`LogicalExecutor` that every record's
detection reuses, whichever key the record was issued under:

* one shred per trace for :meth:`WmXMLSystem.trace` (recipient and
  owner records mixed), :meth:`TenantDirectory.trace` (two key
  generations) and :meth:`Fingerprinter.trace`, which traces through a
  ``WmXMLSystem`` of its own and so verifies every copy it issued, a
  recipient's earlier copies included;
* no shred when the sweep has no records, so a malformed suspect still
  raises nothing on an empty registry, and an unknown recipient is
  refused before the suspect is looked at;
* no executor at all under ``strategy="scan"``.

It also covers owner embeds of bit strings with no text form: the
registry records those as ``bits:0101...``, and a trace or a recorded
detection verifies them against their bits, while a text message that
merely reads ``bits:...`` still verifies as text.
"""

import dataclasses
import json

import pytest

from repro.api import Fingerprinter, WmXMLSystem
from repro.api.system import recorded_message
from repro.core import Watermark, WmXMLDecoder
from repro.datasets import bibliography
from repro.datasets.bibliography import BibliographyConfig
from repro.errors import WmXMLError
from repro.registry import UnknownRecipientError, WatermarkRegistry
from repro.rewriting import LogicalExecutor, reorganize
from repro.semantics.errors import RecordError
from repro.semantics.shape import DocumentShape
from repro.service import REQUEST_FORMAT, WmXMLService
from repro.tenants import TenantDirectory, TenantsConfig
from repro.xmlmodel import parse, serialize

KEY = "trace-sweep-key"
RAW_BITS = Watermark([1] * 8)  # 0xFF: not UTF-8, so no text form

#: Two text nodes in one publisher-centric <book>: the shred refuses it.
MALFORMED = parse(
    '<db><publisher name="p"><author name="a">'
    "<book>one<year>1999</year>two</book>"
    "</author></publisher></db>")


def _text(seed, books=30):
    return serialize(bibliography.generate_document(
        BibliographyConfig(books=books, editors=4, seed=seed)))


def _system(gamma=2):
    system = WmXMLSystem(KEY, registry=WatermarkRegistry())
    system.register("books", bibliography.default_scheme(gamma))
    return system


@pytest.fixture
def shreds(monkeypatch):
    """Counts every ``DocumentShape.shred`` call."""
    calls = []
    original = DocumentShape.shred

    def counting(self, document):
        calls.append(document)
        return original(self, document)

    monkeypatch.setattr(DocumentShape, "shred", counting)
    return calls


@pytest.fixture
def executor_builds(monkeypatch):
    """Counts every ``LogicalExecutor`` built."""
    built = []
    original = LogicalExecutor.__init__

    def counting(self, document, shape):
        built.append(shape)
        original(self, document, shape)

    monkeypatch.setattr(LogicalExecutor, "__init__", counting)
    return built


@pytest.fixture(scope="module")
def mixed():
    """Seven records: five recipients, a text and a raw-bit owner embed."""
    system = _system()
    copies = {name: system.issue("books", parse(_text(index)), name)
              for index, name in enumerate(
                  ("alice", "bob", "carol", "dave", "erin"))}
    system.embed("books", parse(_text(1)), "(c) owner")
    copies["raw"] = system.embed("books", parse(_text(2)), RAW_BITS)
    return system, copies


class TestOneShredPerTrace:
    def test_system_trace_over_mixed_keying(self, mixed, shreds,
                                            executor_builds):
        system, copies = mixed
        entries = system.registry.records()
        assert len(entries) == 7
        assert {entry.keying for entry in entries} == {"recipient",
                                                       "system"}
        trace = system.trace("books", copies["carol"].document)
        assert trace.prime_suspect == "carol"
        assert len(trace.verdicts) == 7
        assert shreds == [copies["carol"].document]
        assert len(executor_builds) == 1

    def test_reorganized_suspect_shreds_once_in_its_shape(self, mixed,
                                                          shreds):
        system, copies = mixed
        target = bibliography.publisher_shape()
        moved = reorganize(copies["bob"].document,
                           bibliography.book_shape(), target).document
        shreds.clear()
        trace = system.trace("books", moved, shape=target)
        assert trace.prime_suspect == "bob"
        assert shreds == [moved]

    def test_tenant_trace_across_two_generations(self, shreds):
        directory = TenantDirectory(
            TenantsConfig.from_dict({
                "format": "wmxml-tenants-v1",
                "keys": {"1": "sweep-master-one"},
                "tenants": {"acme": {}},
            }),
            registry=WatermarkRegistry())
        directory.register_all("books", bibliography.default_scheme(2))
        old = directory.system("acme")
        leaked = old.issue("books", parse(_text(3)), "ada")
        old.embed("books", parse(_text(4)), "acme owner")
        directory.keys.rotate("sweep-master-two")
        new = directory.system("acme")
        new.issue("books", parse(_text(3)), "bo")
        new.embed("books", parse(_text(4)), "acme owner")
        assert {entry.key_id
                for entry in directory.registry.records()} == {1, 2}
        shreds.clear()
        trace = directory.trace("acme", "books", leaked.document)
        assert trace.prime_suspect == "ada"
        assert sorted(trace.verdicts) == ["acme owner", "ada", "bo"]
        assert len(shreds) == 1

    def test_fingerprinter_trace(self, shreds):
        fingerprinter = Fingerprinter(bibliography.default_scheme(2), KEY)
        copies = [fingerprinter.issue(parse(_text(5)), name)
                  for name in ("ann", "ben", "cat")]
        shreds.clear()
        trace = fingerprinter.trace(copies[1].document)
        assert trace.prime_suspect == "ben"
        assert len(shreds) == 1

    def test_fingerprinter_with_no_copies_shreds_nothing(self, shreds):
        fingerprinter = Fingerprinter(bibliography.default_scheme(2), KEY)
        assert fingerprinter.trace(MALFORMED).verdicts == {}
        assert shreds == []

    def test_fingerprinter_traces_a_recipients_first_copy(self, shreds):
        fingerprinter = Fingerprinter(bibliography.default_scheme(2), KEY)
        first = fingerprinter.issue(parse(_text(6)), "alice")
        fingerprinter.issue(parse(_text(7)), "alice")
        fingerprinter.issue(parse(_text(8)), "bob")
        shreds.clear()
        trace = fingerprinter.trace(first.document)
        assert trace.prime_suspect == "alice"
        assert fingerprinter.issued_recipients == ["alice", "bob"]
        assert len(shreds) == 1

    def test_scan_builds_no_executor(self, mixed, shreds, executor_builds):
        system, copies = mixed
        trace = system.trace("books", copies["dave"].document,
                             strategy="scan")
        assert trace.prime_suspect == "dave"
        assert executor_builds == []
        assert shreds == []


class TestEmptySweep:
    def test_empty_registry_never_reads_the_suspect(self, shreds):
        trace = _system().trace("books", MALFORMED,
                                shape=bibliography.publisher_shape())
        assert trace.verdicts == {}
        assert shreds == []

    def test_unknown_recipient_refused_before_any_shred(self, mixed,
                                                        shreds):
        system, _ = mixed
        with pytest.raises(UnknownRecipientError):
            system.trace("books", MALFORMED, recipients=["mallory"],
                         shape=bibliography.publisher_shape())
        assert shreds == []

    def test_malformed_suspect_still_fails_with_records(self, mixed,
                                                        shreds):
        system, _ = mixed
        with pytest.raises(RecordError):
            system.trace("books", MALFORMED,
                         shape=bibliography.publisher_shape())
        assert len(shreds) == 1

    def test_unknown_strategy_refused_before_any_shred(self, mixed,
                                                       shreds):
        system, copies = mixed
        with pytest.raises(WmXMLError, match="unknown detection strategy"):
            system.trace("books", copies["bob"].document,
                         strategy="fastest")
        assert shreds == []

    def test_unknown_strategy_refused_by_an_empty_sweep(self, mixed):
        """The strategy is checked before the first record, so a sweep
        with no records refuses a bad one as a full sweep does."""
        system, copies = mixed
        for tracer, recipients in ((_system(), None), (system, [])):
            with pytest.raises(WmXMLError,
                               match="unknown detection strategy"):
                tracer.trace("books", copies["bob"].document,
                             strategy="bogus", recipients=recipients)


class TestSharedExecutor:
    def test_shared_executor_gives_the_same_verdict(self, mixed):
        system, copies = mixed
        document = copies["erin"].document
        shape = bibliography.book_shape()
        executor = LogicalExecutor(document, shape)
        for entry in system.registry.records():
            if entry.keying != "recipient":
                continue
            decoder = WmXMLDecoder(system.recipient_key(entry.recipient))
            expected = Watermark.from_message(entry.recipient)
            fresh = decoder.detect(document, entry.record, shape,
                                   expected=expected, indexed=True)
            shared = decoder.detect(document, entry.record, shape,
                                    expected=expected, indexed=True,
                                    executor=executor)
            assert shared.to_dict() == fresh.to_dict()

    def test_executor_over_another_document_refused(self, mixed):
        system, copies = mixed
        entry = system.registry.records_for("alice")[0]
        decoder = WmXMLDecoder(system.recipient_key("alice"))
        shape = bibliography.book_shape()
        other = LogicalExecutor(copies["bob"].document, shape)
        with pytest.raises(ValueError):
            decoder.detect(copies["alice"].document, entry.record, shape,
                           indexed=True, executor=other)
        reorganized = LogicalExecutor(copies["alice"].document,
                                      bibliography.publisher_shape())
        with pytest.raises(ValueError):
            decoder.detect(copies["alice"].document, entry.record, shape,
                           indexed=True, executor=reorganized)


class TestRawBitOwnerRecords:
    def test_trace_verifies_raw_bits_against_their_bits(self, mixed):
        system, copies = mixed
        [entry] = system.registry.records(recipient="bits:11111111")
        assert entry.record.nbits == 8
        trace = system.trace("books", copies["alice"].document)
        assert trace.prime_suspect == "alice"
        assert not trace.verdicts["bits:11111111"].detected
        raw = system.trace("books", copies["raw"].document)
        assert raw.prime_suspect == "bits:11111111"
        assert raw.verdicts["bits:11111111"].bit_error == 0.0

    def test_detect_recorded_raw_bits(self, mixed):
        system, copies = mixed
        verdict = system.detect_recorded("books", copies["raw"].document,
                                         "bits:11111111")
        assert verdict.detected
        assert verdict.bit_error == 0.0

    def test_text_that_reads_like_bits_stays_text(self):
        system = _system()
        copy = system.embed("books", parse(_text(6)), "bits:0101")
        [entry] = system.registry.records()
        assert entry.recipient == "bits:0101"
        assert entry.record.nbits == 8 * len("bits:0101")
        trace = system.trace("books", copy.document)
        assert trace.prime_suspect == "bits:0101"
        assert recorded_message(entry) == "bits:0101"
        assert system.detect_recorded("books", copy.document,
                                      "bits:0101").detected

    def test_only_owner_records_carry_bits(self, mixed):
        system, _ = mixed
        [raw] = system.registry.records(recipient="bits:11111111")
        assert recorded_message(raw) == RAW_BITS
        issued = system.registry.records_for("alice")[0]
        lookalike = "bits:" + "0" * issued.record.nbits
        assert recorded_message(
            dataclasses.replace(issued, recipient=lookalike)) == lookalike


def _body(**fields) -> bytes:
    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode()


class TestRawBitOwnerRecordsOverTheWire:
    @pytest.fixture
    def service(self):
        system = _system()
        service = WmXMLService(system)
        system.embed("books", parse(_text(7)), RAW_BITS)
        return service

    def _issue(self, service, **fields):
        status, payload, _ = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=_text(8), **fields))
        assert status == 200
        return payload["xml"]

    def _trace(self, service, xml):
        status, payload, _ = service.dispatch(
            "POST", "/v1/trace", _body(scheme="books", document=xml))
        assert status == 200, payload
        return payload["trace"]

    def test_trace_after_raw_bit_embed_answers(self, service):
        leaked = self._issue(service, recipient="alice")
        trace = self._trace(service, leaked)
        assert trace["prime_suspect"] == "alice"
        assert set(trace["verdicts"]) == {"alice", "bits:11111111"}

    def test_text_that_reads_like_bits_over_the_wire(self, service):
        copy = self._issue(service, message="bits:0101")
        trace = self._trace(service, copy)
        assert trace["prime_suspect"] == "bits:0101"
        assert set(trace["verdicts"]) == {"bits:0101", "bits:11111111"}
