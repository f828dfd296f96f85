"""The registry subsystem in isolation: artefacts, backends, ledger.

Four contracts:

* **Artefact** — ``wmxml-registry-record-v1`` round-trips through
  dict/JSON/file like every other versioned artefact, and rejects
  malformed/foreign documents with ``bad-registry-record``.
* **Backend equivalence** — the SQLite backend answers every query
  (filters, pagination, recipients, blocks) identically to the
  in-memory reference backend over the same appended corpus.
* **Tamper evidence** — flipping any persisted field of any ledger
  block, forging the final block, rewriting the chain without the key,
  editing a record without touching the ledger, or adding/removing
  rows: ``verify_chain()`` catches all of it.
* **Tooling** — the JSONL export/import round-trip restores a registry
  bit-for-bit (same chain, still sealed by the original key), and a
  database stamped with a *newer* schema version is refused.
"""

import dataclasses
import io
import json
import sqlite3
import sys
import threading

import pytest

from repro.core.crypto import KeyedPRF
from repro.core.record import WatermarkRecord
from repro.registry import (
    EXPORT_FORMAT,
    GENESIS_HASH,
    ChainBrokenError,
    LedgerBlock,
    MemoryBackend,
    RegistryError,
    RegistryFormatError,
    RegistryRecord,
    RegistrySchemaError,
    SCHEMA_VERSION,
    SQLiteBackend,
    UnknownRecipientError,
    WatermarkRegistry,
    hash_document,
    next_block,
    verify_chain,
)
from repro.registry import sqlite as sqlite_backend

SEALER = KeyedPRF("registry-test-key")


def _watermark_record(nbits: int = 8) -> WatermarkRecord:
    return WatermarkRecord(gamma=4, nbits=nbits, shape_name="book",
                           key_fingerprint="kf", queries=[])


def _registry_record(recipient: str = "alice", doc: str = "<a/>",
                     scheme_fp: str = "scheme-fp",
                     keying: str = "recipient") -> RegistryRecord:
    return RegistryRecord(
        recipient=recipient, record=_watermark_record(),
        document_hash=hash_document(doc), scheme_fingerprint=scheme_fp,
        key_fingerprint="key-fp", keying=keying, issuer="tester",
        created_at="2026-08-08T00:00:00+00:00")


def _populated(registry: WatermarkRegistry) -> WatermarkRegistry:
    """Three recipients, two schemes, one shared document."""
    registry.record_embed("alice", _watermark_record(), "<a/>",
                          "scheme-1", "kf-a", "recipient", "tester")
    registry.record_embed("bob", _watermark_record(), "<b/>",
                          "scheme-1", "kf-b", "recipient", "tester")
    registry.record_embed("carol", _watermark_record(), "<a/>",
                          "scheme-2", "kf-c", "system", "tester")
    registry.record_embed("alice", _watermark_record(16), "<c/>",
                          "scheme-2", "kf-a", "recipient", "tester")
    return registry


# ---------------------------------------------------------------------------
# The wmxml-registry-record-v1 artefact
# ---------------------------------------------------------------------------

class TestRegistryRecord:
    def test_round_trip_dict(self):
        entry = _registry_record()
        again = RegistryRecord.from_dict(entry.to_dict())
        assert again.to_dict() == entry.to_dict()

    def test_round_trip_file(self, tmp_path):
        entry = _registry_record()
        entry.sequence = 7
        path = str(tmp_path / "entry.json")
        entry.save(path)
        again = RegistryRecord.load(path)
        assert again.sequence == 7
        assert again.recipient == "alice"
        assert again.record.to_dict() == entry.record.to_dict()

    def test_format_tag_enforced(self):
        data = _registry_record().to_dict()
        data["format"] = "wmxml-registry-record-v2"
        with pytest.raises(RegistryFormatError):
            RegistryRecord.from_dict(data)

    def test_missing_field_rejected(self):
        data = _registry_record().to_dict()
        del data["recipient"]
        with pytest.raises(RegistryFormatError):
            RegistryRecord.from_dict(data)

    def test_unknown_keying_rejected(self):
        with pytest.raises(RegistryFormatError):
            _registry_record(keying="telepathy")

    def test_error_code_slug(self):
        try:
            _registry_record(keying="telepathy")
        except RegistryFormatError as error:
            assert error.code == "bad-registry-record"

    def test_content_hash_excludes_sequence(self):
        entry = _registry_record()
        unsequenced = entry.content_hash()
        entry.sequence = 42
        assert entry.content_hash() == unsequenced

    def test_content_hash_covers_every_field(self):
        base = _registry_record()
        for field, value in [("recipient", "mallory"),
                             ("document_hash", "0" * 64),
                             ("scheme_fingerprint", "other"),
                             ("key_fingerprint", "other"),
                             ("keying", "system"),
                             ("issuer", "other"),
                             ("created_at", "2001-01-01T00:00:00+00:00")]:
            changed = _registry_record()
            setattr(changed, field, value)
            assert changed.content_hash() != base.content_hash(), field


# ---------------------------------------------------------------------------
# Backend equivalence: SQLite == in-memory
# ---------------------------------------------------------------------------

@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        backend = SQLiteBackend(str(tmp_path / "reg.db"))
        yield backend
        backend.close()


class TestBackendEquivalence:
    QUERIES = [
        {},
        {"recipient": "alice"},
        {"recipient": "nobody"},
        {"scheme_fingerprint": "scheme-1"},
        {"document_hash": hash_document("<a/>")},
        {"recipient": "alice", "scheme_fingerprint": "scheme-2"},
        {"recipient": "alice", "scheme_fingerprint": "scheme-1",
         "document_hash": hash_document("<a/>")},
    ]

    def _pair(self, tmp_path):
        memory = WatermarkRegistry(MemoryBackend(), sealer=SEALER)
        sqlite_backend = SQLiteBackend(str(tmp_path / "eq.db"))
        durable = WatermarkRegistry(sqlite_backend, sealer=SEALER)
        return _populated(memory), _populated(durable)

    def test_every_query_identical(self, tmp_path):
        memory, durable = self._pair(tmp_path)
        for query in self.QUERIES:
            via_memory = [r.to_dict() for r in memory.records(**query)]
            via_sqlite = [r.to_dict() for r in durable.records(**query)]
            # created_at differs (wall clock); sequences and content
            # ordering must not.
            strip = lambda d: {k: v for k, v in d.items()
                               if k != "created_at"}
            assert ([strip(d) for d in via_memory]
                    == [strip(d) for d in via_sqlite]), query
            assert memory.count(**query) == durable.count(**query)

    def test_recipients_and_pagination(self, tmp_path):
        memory, durable = self._pair(tmp_path)
        assert memory.recipients() == durable.recipients() \
            == ["alice", "bob", "carol"]
        for registry in (memory, durable):
            page = registry.records(offset=1, limit=2)
            assert [r.sequence for r in page] == [1, 2]
            assert registry.records(offset=10) == []
            assert [r.sequence for r in registry.records(limit=0)] == []

    def test_ledger_identical_shape(self, tmp_path):
        memory, durable = self._pair(tmp_path)
        mem_blocks = memory.blocks()
        sql_blocks = durable.blocks()
        assert len(mem_blocks) == len(sql_blocks) == 4
        for registry in (memory, durable):
            assert registry.verify_chain().intact

    def test_get_record(self, backend):
        assert backend.get_record(0) is None
        sequence = backend.append_record(_registry_record())
        assert sequence == 0
        found = backend.get_record(0)
        assert found.recipient == "alice"
        assert found.sequence == 0
        assert backend.get_record(99) is None

    def test_out_of_order_block_refused(self, backend):
        entry = _registry_record()
        entry.sequence = 0
        block = next_block(None, entry, SEALER)
        wrong = dataclasses.replace(block, index=5)
        with pytest.raises(RegistryError):
            backend.append_block(wrong)

    def test_sqlite_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "durable.db")
        registry = WatermarkRegistry(SQLiteBackend(path), sealer=SEALER)
        _populated(registry)
        originals = [r.to_dict() for r in registry.records()]
        registry.close()
        reopened = WatermarkRegistry(SQLiteBackend(path), sealer=SEALER)
        assert [r.to_dict() for r in reopened.records()] == originals
        assert reopened.verify_chain().intact
        reopened.close()

    def test_unopenable_path_raises_registry_error(self, tmp_path):
        path = str(tmp_path / "no" / "such" / "dir" / "x.db")
        with pytest.raises(RegistryError, match="cannot open registry"):
            SQLiteBackend(path)

    def test_non_sqlite_file_raises_registry_error(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"this is not a sqlite database at all")
        with pytest.raises(RegistryError,
                           match="not a wmxml registry database"):
            SQLiteBackend(str(path))


# ---------------------------------------------------------------------------
# The provenance ledger
# ---------------------------------------------------------------------------

class TestLedger:
    def _chain(self, n=4):
        registry = _populated(WatermarkRegistry(sealer=SEALER))
        return registry.blocks(), registry.records(), registry

    def test_genesis_and_links(self):
        blocks, _, _ = self._chain()
        assert blocks[0].prev_hash == GENESIS_HASH
        for previous, block in zip(blocks, blocks[1:]):
            assert block.prev_hash == previous.block_hash()

    def test_timestamps_monotonic(self):
        blocks, _, _ = self._chain()
        for previous, block in zip(blocks, blocks[1:]):
            assert block.timestamp >= previous.timestamp

    def test_clock_stepping_backwards_is_clamped(self):
        entry = _registry_record()
        first = next_block(None, entry, SEALER, now=1000.0)
        second = next_block(first, entry, SEALER, now=900.0)
        assert second.timestamp == 1000.0

    def test_intact_chain_verifies(self):
        blocks, records, registry = self._chain()
        report = verify_chain(blocks, records=records, sealer=SEALER)
        assert report.intact and report.sealed
        assert report.blocks == report.records == 4
        assert registry.verify_chain().intact

    @pytest.mark.parametrize("position", [0, 1, 3])
    @pytest.mark.parametrize("field,value", [
        ("prev_hash", "f" * 64),
        ("record_hash", "f" * 64),
        ("document_hash", "f" * 64),
        ("issuer", "mallory"),
        ("scheme_fingerprint", "forged"),
        ("key_fingerprint", "forged"),
        ("timestamp", 1.0),
        ("seal", "00" * 32),
    ])
    def test_any_field_tamper_detected(self, position, field, value):
        blocks, records, _ = self._chain()
        blocks[position] = dataclasses.replace(
            blocks[position], **{field: value})
        report = verify_chain(blocks, records=records, sealer=SEALER)
        assert not report.intact, (position, field)
        assert report.broken_index is not None

    def test_final_block_forgery_needs_the_key(self):
        # Rewrite the last block entirely (valid links, self-consistent
        # content) but seal it with the wrong key: only the HMAC check
        # can catch this, and it does.
        blocks, records, _ = self._chain()
        entry = records[-1]
        forged = next_block(blocks[-2], entry, KeyedPRF("wrong-key"))
        blocks[-1] = forged
        unsealed = verify_chain(blocks, records=records)
        assert unsealed.intact  # hash links alone cannot see it
        sealed = verify_chain(blocks, records=records, sealer=SEALER)
        assert not sealed.intact
        assert "seal" in sealed.reason

    def test_record_only_tamper_detected(self):
        # Edit a persisted record without touching the ledger at all.
        blocks, records, _ = self._chain()
        records[1].recipient = "mallory"
        report = verify_chain(blocks, records=records, sealer=SEALER)
        assert not report.intact
        assert report.broken_index == 1

    def test_row_count_drift_detected(self):
        blocks, records, _ = self._chain()
        report = verify_chain(blocks, records=records[:-1], sealer=SEALER)
        assert not report.intact
        assert "added or removed" in report.reason

    def test_raise_if_broken(self):
        blocks, records, _ = self._chain()
        blocks[2] = dataclasses.replace(blocks[2], issuer="mallory")
        report = verify_chain(blocks, records=records, sealer=SEALER)
        with pytest.raises(ChainBrokenError) as excinfo:
            report.raise_if_broken()
        assert excinfo.value.code == "chain-broken"

    def test_block_round_trips(self):
        blocks, _, _ = self._chain()
        for block in blocks:
            again = LedgerBlock.from_dict(
                json.loads(json.dumps(block.to_dict())))
            assert again == block
            assert again.block_hash() == block.block_hash()

    def test_append_without_sealer_refused(self):
        registry = WatermarkRegistry()  # no sealer attached
        with pytest.raises(RegistryFormatError):
            registry.append(_registry_record())


# ---------------------------------------------------------------------------
# Queries, unknown recipients
# ---------------------------------------------------------------------------

class TestQueries:
    def test_records_for_unknown_recipient(self):
        registry = _populated(WatermarkRegistry(sealer=SEALER))
        with pytest.raises(UnknownRecipientError) as excinfo:
            registry.records_for("mallory")
        assert excinfo.value.code == "unknown-recipient"
        assert "alice" in str(excinfo.value)  # the hint names known ids

    def test_records_for_known_recipient(self):
        registry = _populated(WatermarkRegistry(sealer=SEALER))
        assert [r.sequence for r in registry.records_for("alice")] == [0, 3]


# ---------------------------------------------------------------------------
# Export / import and schema versioning
# ---------------------------------------------------------------------------

class TestExportImport:
    def test_round_trip_preserves_chain(self, tmp_path):
        source = _populated(WatermarkRegistry(sealer=SEALER))
        dump = io.StringIO()
        lines = source.export_jsonl(dump)
        assert lines == 1 + 4 + 4  # header + records + blocks
        header = json.loads(dump.getvalue().splitlines()[0])
        assert header["format"] == EXPORT_FORMAT
        assert header["schema_version"] == SCHEMA_VERSION

        restored = WatermarkRegistry(
            SQLiteBackend(str(tmp_path / "restored.db")), sealer=SEALER)
        dump.seek(0)
        assert restored.import_jsonl(dump) == 8
        assert ([r.to_dict() for r in restored.records()]
                == [r.to_dict() for r in source.records()])
        # The imported chain is the *original* chain: still sealed by
        # the original key, not re-sealed on import.
        assert restored.blocks() == source.blocks()
        assert restored.verify_chain().intact
        restored.close()

    def test_import_into_non_empty_refused(self):
        source = _populated(WatermarkRegistry(sealer=SEALER))
        dump = io.StringIO()
        source.export_jsonl(dump)
        dump.seek(0)
        with pytest.raises(RegistryFormatError):
            source.import_jsonl(dump)

    def test_import_rejects_foreign_stream(self):
        registry = WatermarkRegistry(sealer=SEALER)
        with pytest.raises(RegistryFormatError):
            registry.import_jsonl(io.StringIO('{"format": "csv"}\n'))
        with pytest.raises(RegistryFormatError):
            registry.import_jsonl(io.StringIO(""))

    def test_import_rejects_newer_schema(self):
        registry = WatermarkRegistry(sealer=SEALER)
        header = json.dumps({"format": EXPORT_FORMAT,
                             "schema_version": SCHEMA_VERSION + 1})
        with pytest.raises(RegistryFormatError):
            registry.import_jsonl(io.StringIO(header + "\n"))

    def test_newer_database_schema_refused(self, tmp_path):
        path = str(tmp_path / "future.db")
        SQLiteBackend(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE registry_meta SET value = ? "
                     "WHERE key = 'schema_version'",
                     (str(SCHEMA_VERSION + 1),))
        conn.commit()
        conn.close()
        with pytest.raises(RegistrySchemaError) as excinfo:
            SQLiteBackend(path)
        assert excinfo.value.code == "registry-schema"
        assert "newer" in str(excinfo.value)

    def test_current_database_schema_reopens(self, tmp_path):
        path = str(tmp_path / "current.db")
        SQLiteBackend(path).close()
        SQLiteBackend(path).close()  # reopening the same version is fine


# ---------------------------------------------------------------------------
# SQLite decode reuse: exact, bounded, safe under concurrent readers
# ---------------------------------------------------------------------------

def _fresh_decodes(path: str) -> dict:
    """Every stored row decoded anew, through a connection of its own."""
    conn = sqlite3.connect(path)
    try:
        return {sequence: RegistryRecord.from_dict(json.loads(payload))
                .to_dict()
                for sequence, payload in conn.execute(
                    "SELECT sequence, payload FROM records")}
    finally:
        conn.close()


class TestDecodeReuse:
    def test_rewritten_row_decodes_afresh(self, tmp_path):
        path = str(tmp_path / "reuse.db")
        registry = WatermarkRegistry(SQLiteBackend(path), sealer=SEALER)
        registry.append(_registry_record("alice"))
        registry.append(_registry_record("bob", "<b/>"))
        assert [r.recipient for r in registry.records()] == ["alice", "bob"]
        assert registry.backend.get_record(0).recipient == "alice"

        # Reassign alice's row to mallory behind the backend's back.
        conn = sqlite3.connect(path)
        payload = json.loads(conn.execute(
            "SELECT payload FROM records WHERE sequence = 0").fetchone()[0])
        payload["recipient"] = "mallory"
        conn.execute("UPDATE records SET payload = ?, recipient = ? "
                     "WHERE sequence = 0", (json.dumps(payload), "mallory"))
        conn.commit()
        conn.close()

        assert [r.recipient for r in registry.records()] == \
            ["mallory", "bob"]
        assert registry.backend.get_record(0).recipient == "mallory"
        assert not registry.verify_chain().intact
        registry.close()


class TestConcurrentReaders:
    """Readers racing an appender see whole, ordered, exact corpora."""

    READERS = 6  # more threads than the 2 cores CI runners have
    APPENDS = 150
    CHECKED = 3  # trailing entries of each read held against fresh decodes

    @pytest.mark.parametrize("budget_records", [None, 3])
    def test_reads_are_ordered_and_exact(self, tmp_path, monkeypatch,
                                         budget_records):
        path = str(tmp_path / "stress.db")
        backend = SQLiteBackend(path)
        registry = WatermarkRegistry(backend, sealer=SEALER)
        registry.append(_registry_record("r000", "<d0/>"))
        if budget_records is not None:
            # Room for about three records' payload text.
            payload_chars = len(json.dumps(registry.records()[0].to_dict()))
            monkeypatch.setattr(sqlite_backend, "DECODE_BUDGET_CHARS",
                                budget_records * payload_chars)
        budget = sqlite_backend.DECODE_BUDGET_CHARS

        done = threading.Event()
        reads, failures = [], []

        def reader():
            try:
                while not done.is_set():
                    found = registry.records()
                    reads.append(([r.sequence for r in found],
                                  [r.to_dict()
                                   for r in found[-self.CHECKED:]]))
                    if backend._decoded_chars > budget:
                        failures.append(
                            f"held {backend._decoded_chars} > {budget}")
            except Exception as error:  # surfaced by the main thread
                failures.append(repr(error))

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(self.READERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for index in range(1, self.APPENDS):
                registry.append(_registry_record(f"r{index:03d}",
                                                 f"<d{index}/>"))
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

        fresh = _fresh_decodes(path)
        assert len(fresh) == self.APPENDS
        assert reads
        for sequences, tail in reads:
            assert sequences == list(range(len(sequences)))
            assert tail == [fresh[s] for s in sequences[-self.CHECKED:]]
        final = registry.records()
        assert [r.to_dict() for r in final] == \
            [fresh[s] for s in range(self.APPENDS)]
        assert backend._decoded_chars <= budget
        assert backend._decoded_chars == sum(
            len(text) for text, _ in backend._decoded.values())
        if budget_records is not None:
            assert 0 < len(backend._decoded) <= budget_records
        registry.close()
