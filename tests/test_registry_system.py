"""Registry wired through :class:`WmXMLSystem`: the equivalence rails.

The registry is a pure *observer* of the embedding path — the golden
vectors pin that down:

* an embed through a registry-enabled system is **bit-identical** to
  the same embed through a registry-less one (and to the frozen golden
  corpus hashes);
* a pooled ``embed_many`` appends exactly the records a serial run
  appends;
* issuance, recorded detection, and collusion tracing work end to end
  over the persisted corpus;
* :class:`TraceResult` accusation order is deterministic under p-value
  ties (the PR's bugfix).
"""

import hashlib
import json

import pytest

from repro.api import CollusionAttack, Watermark, WmXMLSystem
from repro.core.decoder import DetectionResult
from repro.core.fingerprint import TraceResult
from repro.datasets import bibliography
from repro.datasets.bibliography import BibliographyConfig
from repro.registry import (
    MemoryBackend,
    RegistryNotConfiguredError,
    UnknownRecipientError,
    WatermarkRegistry,
)
from repro.xmlmodel import parse, serialize

KEY = "golden-key-bib"
MESSAGE = "(c) golden"

# Frozen corpus hashes shared with tests/test_service.py: the marked
# document and record produced by embedding MESSAGE under KEY into the
# books=60/editors=6/seed=1234 bibliography with the gamma=2 default
# scheme.  The registry must never perturb them.
GOLDEN_MARKED_SHA = \
    "e4be42bf4221ef09cf9fcfd618cb373c773758bea13c6b4206fce51d229e3833"
GOLDEN_RECORD_SHA = \
    "f560a2be927e49a15d9bf452b13fe5e3f5031a72147a446c4d96c48bf0ce303d"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden_text():
    document = bibliography.generate_document(
        BibliographyConfig(books=60, editors=6, seed=1234))
    return serialize(document)


@pytest.fixture(scope="module")
def scheme():
    return bibliography.default_scheme(2)


def _system(scheme, registry=True):
    system = WmXMLSystem(
        KEY, registry=WatermarkRegistry() if registry else None,
        issuer="golden-issuer")
    system.register("books", scheme)
    return system


class TestRecordingIsPure:
    def test_recorded_embed_bit_identical_to_unrecorded(self, golden_text,
                                                        scheme):
        recorded = _system(scheme).embed(
            "books", parse(golden_text), MESSAGE)
        plain = _system(scheme, registry=False).embed(
            "books", parse(golden_text), MESSAGE)
        assert serialize(recorded.document) == serialize(plain.document)
        assert recorded.record.to_dict() == plain.record.to_dict()

    def test_recorded_embed_matches_golden_vectors(self, golden_text,
                                                   scheme):
        system = _system(scheme)
        result = system.embed("books", parse(golden_text), MESSAGE)
        assert _sha256(serialize(result.document)) == GOLDEN_MARKED_SHA
        record_json = json.dumps(result.record.to_dict(), sort_keys=True)
        assert _sha256(record_json) == GOLDEN_RECORD_SHA

    def test_issued_copy_bit_identical_to_unrecorded_issue(self,
                                                           golden_text,
                                                           scheme):
        recorded = _system(scheme).issue(
            "books", parse(golden_text), "alice")
        plain = _system(scheme, registry=False).issue(
            "books", parse(golden_text), "alice")
        assert serialize(recorded.document) == serialize(plain.document)


class TestRecordContents:
    def test_system_embed_recorded(self, golden_text, scheme):
        system = _system(scheme)
        result = system.embed("books", parse(golden_text), MESSAGE)
        [entry] = system.registry.records()
        assert entry.recipient == MESSAGE
        assert entry.keying == "system"
        assert entry.issuer == "golden-issuer"
        assert entry.sequence == 0
        assert entry.scheme_fingerprint == system.scheme_fingerprint("books")
        assert entry.key_fingerprint == system.pipeline("books").key_fingerprint
        assert entry.document_hash == _sha256(result.to_xml())
        assert entry.record.to_dict() == result.record.to_dict()
        assert system.registry.verify_chain().intact

    def test_issue_recorded_under_derived_key(self, golden_text, scheme):
        system = _system(scheme)
        system.issue("books", parse(golden_text), "alice")
        [entry] = system.registry.records()
        assert entry.keying == "recipient"
        assert entry.key_fingerprint \
            == system.recipient_pipeline("books", "alice").key_fingerprint
        assert entry.key_fingerprint \
            != system.pipeline("books").key_fingerprint

    def test_watermark_message_identity(self, golden_text, scheme):
        system = _system(scheme)
        system.embed("books", parse(golden_text),
                     Watermark.from_message(MESSAGE))
        [entry] = system.registry.records()
        assert entry.recipient == MESSAGE


class TestPooledAppendEquivalence:
    def test_pooled_embed_many_appends_same_records_as_serial(
            self, scheme):
        documents = [
            serialize(bibliography.generate_document(
                BibliographyConfig(books=24, editors=4, seed=seed)))
            for seed in range(6)
        ]
        serial = _system(scheme)
        serial.embed_many("books", documents, MESSAGE, processes=1)
        pooled = _system(scheme)
        pooled.embed_many("books", documents, MESSAGE, processes=2)

        strip = lambda entry: {k: v for k, v in entry.to_dict().items()
                               if k != "created_at"}
        assert ([strip(e) for e in serial.registry.records()]
                == [strip(e) for e in pooled.registry.records()])
        assert pooled.registry.verify_chain().intact

    def test_issue_many_records_every_copy(self, scheme, tmp_path):
        documents = [
            serialize(bibliography.generate_document(
                BibliographyConfig(books=24, editors=4, seed=seed)))
            for seed in range(3)
        ]
        # The batch lands in one append on either backend.
        for registry in (WatermarkRegistry(),
                         WatermarkRegistry.open(str(tmp_path / "batch.db"))):
            system = WmXMLSystem(KEY, registry=registry,
                                 issuer="golden-issuer")
            system.register("books", scheme)
            system.issue_many("books", documents, "bob", processes=1)
            entries = system.registry.records_for("bob")
            assert len(entries) == 3
            assert [e.sequence for e in entries] == [0, 1, 2]
            assert len({e.document_hash for e in entries}) == 3
            registry.close()


class TestTraceOverCorpus:
    RECIPIENTS = ("alice", "bob", "carol")

    @pytest.fixture(scope="class")
    def traced(self, scheme):
        """Issue one copy per recipient, leak bob's, trace it."""
        system = _system(scheme)
        text = serialize(bibliography.generate_document(
            BibliographyConfig(books=80, editors=8, seed=99)))
        copies = {name: system.issue("books", parse(text), name)
                  for name in self.RECIPIENTS}
        return system, copies

    def test_leak_traces_to_the_recipient(self, traced):
        system, copies = traced
        trace = system.trace("books", copies["bob"].document)
        assert trace.prime_suspect == "bob"
        assert "alice" not in trace.accused
        assert "carol" not in trace.accused
        assert set(trace.verdicts) == set(self.RECIPIENTS)
        assert system.registry.verify_chain().intact

    def test_collusion_still_accuses_a_colluder(self, traced, scheme):
        system, copies = traced
        colluders = ("alice", "carol")
        attacked = CollusionAttack(
            [copies[name].document for name in colluders],
            strategy="majority", seed=7,
        ).apply(copies["alice"].document)
        trace = system.trace("books", attacked.document)
        assert trace.prime_suspect in colluders
        assert "bob" not in trace.accused

    def test_trace_restricted_to_subset(self, traced):
        system, copies = traced
        trace = system.trace("books", copies["bob"].document,
                             recipients=["alice", "bob"])
        assert set(trace.verdicts) == {"alice", "bob"}
        assert trace.prime_suspect == "bob"

    def test_trace_unknown_recipient_refused(self, traced):
        system, copies = traced
        with pytest.raises(UnknownRecipientError) as excinfo:
            system.trace("books", copies["bob"].document,
                         recipients=["mallory"])
        assert excinfo.value.code == "unknown-recipient"

    def test_detect_recorded(self, traced):
        system, copies = traced
        verdict = system.detect_recorded("books", copies["carol"].document,
                                         "carol")
        assert verdict.detected
        miss = system.detect_recorded("books", copies["carol"].document,
                                      "bob")
        assert not miss.detected

    def test_detect_recorded_unknown_recipient(self, traced):
        system, _ = traced
        text = serialize(bibliography.generate_document(
            BibliographyConfig(books=10, editors=2, seed=1)))
        with pytest.raises(UnknownRecipientError):
            system.detect_recorded("books", parse(text), "mallory")


class TestRegistryRequired:
    def test_trace_without_registry(self, golden_text, scheme):
        system = _system(scheme, registry=False)
        with pytest.raises(RegistryNotConfiguredError) as excinfo:
            system.trace("books", parse(golden_text))
        assert excinfo.value.code == "registry-not-configured"

    def test_detect_recorded_without_registry(self, golden_text, scheme):
        system = _system(scheme, registry=False)
        with pytest.raises(RegistryNotConfiguredError):
            system.detect_recorded("books", parse(golden_text), "alice")

    def test_empty_recipient_refused(self, scheme):
        with pytest.raises(ValueError):
            _system(scheme).recipient_key("")


def _verdict(p_value, detected=True):
    return DetectionResult(
        votes_total=10, votes_matching=10, queries_total=10,
        queries_answered=10, p_value=p_value, detected=detected,
        alpha=1e-3)


class TestTraceResultDeterminism:
    """Regression: accusation order under p-value ties (the bugfix)."""

    def test_ties_break_on_recipient_name(self):
        tied = _verdict(1e-9)
        forward = TraceResult(verdicts={"zed": tied, "amy": _verdict(1e-9),
                                        "mid": _verdict(1e-4)})
        backward = TraceResult(verdicts={"mid": _verdict(1e-4),
                                         "amy": _verdict(1e-9), "zed": tied})
        assert forward.accused == backward.accused \
            == ["amy", "zed", "mid"]
        assert forward.prime_suspect == "amy"

    def test_insertion_order_never_decides(self):
        names = ["carol", "alice", "bob"]
        one = TraceResult(verdicts={n: _verdict(0.5e-6) for n in names})
        other = TraceResult(
            verdicts={n: _verdict(0.5e-6) for n in reversed(names)})
        assert one.accused == other.accused == sorted(names)

    def test_not_detected_never_accused(self):
        trace = TraceResult(verdicts={"amy": _verdict(1e-9),
                                      "zed": _verdict(0.9, detected=False)})
        assert trace.accused == ["amy"]

    def test_serialised_trace_is_byte_stable(self):
        verdicts = {"zed": _verdict(1e-9), "amy": _verdict(1e-9)}
        one = TraceResult(verdicts=dict(verdicts))
        other = TraceResult(
            verdicts=dict(reversed(list(verdicts.items()))))
        assert one.to_json() == other.to_json()

    def test_round_trip(self):
        trace = TraceResult(verdicts={"amy": _verdict(1e-9),
                                      "zed": _verdict(1e-4)})
        again = TraceResult.from_dict(trace.to_dict())
        assert again.to_dict() == trace.to_dict()
        assert again.accused == trace.accused

    def test_empty_trace(self):
        trace = TraceResult()
        assert trace.accused == []
        assert trace.prime_suspect is None
        assert TraceResult.from_dict(trace.to_dict()).to_dict() \
            == trace.to_dict()


class TestBackendChoiceInvisible:
    def test_memory_default(self, scheme):
        system = WmXMLSystem(KEY, registry=WatermarkRegistry())
        assert isinstance(system.registry.backend, MemoryBackend)

    def test_sqlite_backed_system_traces(self, tmp_path, scheme):
        registry = WatermarkRegistry.open(str(tmp_path / "sys.db"))
        system = WmXMLSystem(KEY, registry=registry, issuer="golden-issuer")
        system.register("books", scheme)
        text = serialize(bibliography.generate_document(
            BibliographyConfig(books=40, editors=4, seed=5)))
        copy = system.issue("books", parse(text), "dana")
        trace = system.trace("books", copy.document)
        assert trace.prime_suspect == "dana"
        assert system.registry.verify_chain().intact
        registry.close()
