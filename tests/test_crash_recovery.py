"""Crash safety: atomic appends, reopen-after-crash recovery, pool heal.

The failure model (driven by :mod:`repro.faults`):

* **Torn writes** — a fault (or a real ``kill -9``) inside the append
  path must never leave an orphan record or dangling ledger block: the
  record/block pair is one SQLite transaction, so either both rows
  land or neither does.
* **Reopen recovery** — a database torn by *pre-atomic* code (orphan
  trailing row, corrupted trailing seal) recovers on open: the torn
  tail is quarantined — preserved, never deleted — and the remaining
  chain verifies.  Interior damage is tampering, not a crash: recovery
  reports ``chain-broken`` and touches nothing.
* **Worker death** — a process-pool chunk whose worker died is
  retried once on a fresh pool, then serially in the parent; a chunk
  that raised runs once serially in the parent.  Either way the batch
  output stays bit-identical to an all-serial run.
"""

import os
import sqlite3
import subprocess
import sys

import pytest

import repro.api.pipeline as pipeline_mod
from repro import faults
from repro.api import Pipeline, WmXMLSystem
from repro.core.crypto import KeyedPRF
from repro.core.record import WatermarkRecord
from repro.datasets import bibliography
from repro.faults import FaultInjectedError, injected
from repro.registry import (
    MemoryBackend,
    RegistryError,
    RegistryRecord,
    RegistryUnavailableError,
    SQLiteBackend,
    WatermarkRegistry,
    hash_document,
    next_block,
)
from repro.registry.sqlite import BUSY_TIMEOUT_MS
from repro.parallel import map_recovering
from repro.xmlmodel import parse, serialize
from repro.xmlmodel.errors import XMLSyntaxError

KEY = "crash-recovery-key"
SEALER = KeyedPRF(KEY)


def _watermark_record() -> WatermarkRecord:
    return WatermarkRecord(gamma=4, nbits=8, shape_name="book",
                           key_fingerprint="kf", queries=[])


def _registry_record(recipient: str = "alice",
                     doc: str = "<a/>") -> RegistryRecord:
    return RegistryRecord(
        recipient=recipient, record=_watermark_record(),
        document_hash=hash_document(doc), scheme_fingerprint="scheme-fp",
        key_fingerprint="key-fp", keying="recipient", issuer="tester",
        created_at="2026-08-08T00:00:00+00:00")


def _registry(backend) -> WatermarkRegistry:
    return WatermarkRegistry(backend, sealer=SEALER)


@pytest.fixture(autouse=True)
def clean_slate():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return SQLiteBackend(str(tmp_path / "reg.db"))


# ---------------------------------------------------------------------------
# Atomic appends under injected faults
# ---------------------------------------------------------------------------

class TestAtomicAppend:
    def test_torn_append_leaves_no_orphan(self, backend):
        registry = _registry(backend)
        registry.append(_registry_record("alice"))
        # memory raises the raw OSError; sqlite's _guarded maps the
        # storage-layer failure to registry-unavailable
        with injected("registry.append.torn", error="os"):
            with pytest.raises((OSError, RegistryUnavailableError)):
                registry.append(_registry_record("bob", "<b/>"))
        assert backend.record_count() == 1
        assert backend.block_count() == 1
        assert registry.verify_chain().intact

    def test_commit_fault_rolls_back_the_pair(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "reg.db"))
        registry = _registry(backend)
        registry.append(_registry_record("alice"))
        with injected("registry.sqlite.commit", error="sqlite"):
            with pytest.raises(RegistryError):
                registry.append(_registry_record("bob", "<b/>"))
        assert backend.record_count() == 1
        assert backend.block_count() == 1
        assert registry.verify_chain().intact

    def test_retry_after_fault_appends_cleanly(self, backend):
        registry = _registry(backend)
        entry = _registry_record("bob", "<b/>")
        with injected("registry.append.torn", error="os"):
            with pytest.raises((OSError, RegistryUnavailableError)):
                registry.append(entry)
        registry.append(entry)
        assert backend.record_count() == 1
        assert registry.verify_chain().intact

    def test_batched_append_is_all_or_nothing(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "reg.db"))
        registry = _registry(backend)
        registry.append(_registry_record("alice"))
        batch = [_registry_record(f"r{i}", f"<d{i}/>") for i in range(4)]
        with injected("registry.sqlite.commit", error="sqlite"):
            with pytest.raises(RegistryError):
                registry.append_many(batch)
        # the failed batch persisted *nothing* — this is what makes a
        # client retry after a 503 append-safe
        assert backend.record_count() == 1
        assert backend.block_count() == 1
        registry.append_many(batch)
        assert backend.record_count() == 5
        assert registry.verify_chain().intact

    def test_torn_fault_inside_batch_rolls_back_everything(self, backend):
        registry = _registry(backend)
        batch = [_registry_record(f"r{i}", f"<d{i}/>") for i in range(3)]
        with injected("registry.append.torn", error="os", after=1):
            with pytest.raises((OSError, RegistryError)):
                registry.append_many(batch)
        assert backend.record_count() == 0
        assert backend.block_count() == 0


# ---------------------------------------------------------------------------
# SQLite durability configuration
# ---------------------------------------------------------------------------

class TestDurabilityPragmas:
    def test_wal_and_busy_timeout(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "reg.db"))
        conn = backend._conn
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute(
            "PRAGMA busy_timeout").fetchone()[0] == BUSY_TIMEOUT_MS

    def test_busy_timeout_override(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "reg.db"),
                                busy_timeout_ms=123)
        assert backend._conn.execute(
            "PRAGMA busy_timeout").fetchone()[0] == 123

    def test_concurrent_open_same_file(self, tmp_path):
        # WAL allows a reader while a writer holds the file open.
        path = str(tmp_path / "reg.db")
        writer = _registry(SQLiteBackend(path))
        writer.append(_registry_record("alice"))
        reader = WatermarkRegistry.open(path)
        assert reader.backend.record_count() == 1
        reader.close()
        writer.close()


# ---------------------------------------------------------------------------
# kill -9 mid-append, then reopen
# ---------------------------------------------------------------------------

CRASH_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.crypto import KeyedPRF
from repro.core.record import WatermarkRecord
from repro.registry import (RegistryRecord, SQLiteBackend,
                            WatermarkRegistry, hash_document)

registry = WatermarkRegistry(SQLiteBackend({path!r}),
                             sealer=KeyedPRF({key!r}))
registry.append(RegistryRecord(
    recipient="doomed",
    record=WatermarkRecord(gamma=4, nbits=8, shape_name="book",
                           key_fingerprint="kf", queries=[]),
    document_hash=hash_document("<doomed/>"),
    scheme_fingerprint="scheme-fp", key_fingerprint="key-fp",
    keying="recipient", issuer="tester",
    created_at="2026-08-08T00:00:00+00:00"))
"""


class TestKillNineRecovery:
    @pytest.mark.parametrize("seam", ["registry.sqlite.commit",
                                      "registry.append.torn"])
    def test_process_killed_mid_append_recovers_verified(self, tmp_path,
                                                         seam):
        """os._exit(1) inside the append transaction == kill -9.

        The uncommitted transaction dies with the process; reopening
        runs recovery and finds a verifiable chain with *no* orphan —
        atomicity, not repair, is what saved it.
        """
        path = str(tmp_path / "reg.db")
        registry = _registry(SQLiteBackend(path))
        registry.append(_registry_record("alice"))
        registry.close()

        env = dict(os.environ, WMXML_FAULTS=f"{seam}=exit")
        proc = subprocess.run(
            [sys.executable, "-c",
             CRASH_SCRIPT.format(src=_SRC, path=path, key=KEY)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr

        reopened = WatermarkRegistry.open(path, sealer=SEALER)
        report = reopened.last_recovery
        assert report is not None and report.ok
        assert report.actions == []
        assert reopened.backend.record_count() == 1
        assert reopened.verify_chain().intact
        # and the survivor accepts new appends on the same chain
        reopened.append(_registry_record("bob", "<b/>"))
        assert reopened.verify_chain().intact
        reopened.close()


_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")


# ---------------------------------------------------------------------------
# Reopen recovery of pre-atomic (torn) databases
# ---------------------------------------------------------------------------

def _forge_seal(path: str, index: int) -> None:
    """Tamper the persisted seal of one ledger block, outside the API."""
    import json
    conn = sqlite3.connect(path)
    with conn:
        [payload] = conn.execute(
            "SELECT payload FROM ledger WHERE idx = ?", (index,)
        ).fetchone()
        block = json.loads(payload)
        block["seal"] = "forged"
        conn.execute("UPDATE ledger SET payload = ? WHERE idx = ?",
                     (json.dumps(block), index))
    conn.close()


def _torn_with_orphan_record(path: str) -> None:
    """A database only pre-atomic code could produce: record, no block."""
    registry = _registry(SQLiteBackend(path))
    registry.append(_registry_record("alice"))
    registry.append(_registry_record("bob", "<b/>"))
    registry.backend.append_record(_registry_record("orphan", "<o/>"))
    registry.close()


class TestReopenRecovery:
    def test_orphan_trailing_record_is_quarantined(self, tmp_path):
        path = str(tmp_path / "reg.db")
        _torn_with_orphan_record(path)
        registry = WatermarkRegistry.open(path, sealer=SEALER)
        report = registry.last_recovery
        assert report.ok
        assert len(report.actions) == 1
        assert report.actions[0]["kind"] == "record"
        assert "orphan trailing record" in report.actions[0]["reason"]
        assert registry.backend.record_count() == 2
        assert registry.verify_chain().intact
        # quarantined, not deleted: the artefact is preserved
        [kept] = registry.quarantined()
        assert kept["kind"] == "record"
        assert kept["payload"]["recipient"] == "orphan"
        registry.close()

    def test_reused_sequence_decodes_afresh(self, tmp_path):
        """A reader that decoded the orphan must see bob at its sequence
        once recovery has quarantined the orphan and bob reused it."""
        path = str(tmp_path / "reg.db")
        reader = _registry(SQLiteBackend(path))
        reader.append(_registry_record("alice"))
        reader.backend.append_record(_registry_record("orphan", "<o/>"))
        assert [(r.sequence, r.recipient) for r in reader.records()] == \
            [(0, "alice"), (1, "orphan")]
        assert reader.backend.get_record(1).recipient == "orphan"

        recovered = WatermarkRegistry.open(path, sealer=SEALER)
        assert [a["kind"] for a in recovered.last_recovery.actions] == \
            ["record"]
        recovered.append(_registry_record("bob", "<b/>"))
        recovered.close()

        assert [(r.sequence, r.recipient) for r in reader.records()] == \
            [(0, "alice"), (1, "bob")]
        assert reader.backend.get_record(1).recipient == "bob"
        assert reader.verify_chain().intact
        reader.close()

    def test_orphan_trailing_block_is_quarantined(self, tmp_path):
        path = str(tmp_path / "reg.db")
        registry = _registry(SQLiteBackend(path))
        registry.append(_registry_record("alice"))
        orphan = next_block(registry.backend.last_block(),
                            _registry_record("ghost", "<g/>"), SEALER)
        registry.backend.append_block(orphan)
        registry.close()

        reopened = WatermarkRegistry.open(path, sealer=SEALER)
        report = reopened.last_recovery
        assert report.ok
        assert [a["kind"] for a in report.actions] == ["block"]
        assert reopened.backend.block_count() == 1
        assert reopened.verify_chain().intact
        reopened.close()

    def test_corrupted_trailing_seal_quarantines_the_pair(self, tmp_path):
        path = str(tmp_path / "reg.db")
        registry = _registry(SQLiteBackend(path))
        registry.append(_registry_record("alice"))
        with injected("ledger.seal", "corrupt"):
            registry.append(_registry_record("bob", "<b/>"))
        assert not registry.verify_chain().intact
        registry.close()

        reopened = WatermarkRegistry.open(path, sealer=SEALER)
        report = reopened.last_recovery
        assert report.ok
        assert [a["kind"] for a in report.actions] == ["block", "record"]
        assert reopened.backend.record_count() == 1
        assert reopened.backend.block_count() == 1
        assert reopened.verify_chain().intact
        assert len(reopened.quarantined()) == 2
        reopened.close()

    def test_interior_damage_reports_and_touches_nothing(self, tmp_path):
        """Mid-chain damage is tampering — recovery must preserve it."""
        path = str(tmp_path / "reg.db")
        registry = _registry(SQLiteBackend(path))
        for name in ("alice", "bob", "carol"):
            registry.append(_registry_record(name, f"<{name}/>"))
        registry.close()
        _forge_seal(path, index=1)  # tamper an *interior* block

        reopened = WatermarkRegistry.open(path, sealer=SEALER)
        report = reopened.last_recovery
        assert not report.ok
        assert report.actions == []
        assert report.verification is not None
        assert not report.verification.intact
        assert reopened.backend.record_count() == 3
        assert reopened.backend.block_count() == 3
        assert reopened.quarantined() == []
        reopened.close()

    def test_orphan_over_broken_prefix_is_not_quarantined(self, tmp_path):
        """The guard: a tail is only torn if the chain *before* it holds."""
        path = str(tmp_path / "reg.db")
        _torn_with_orphan_record(path)
        _forge_seal(path, index=0)
        reopened = WatermarkRegistry.open(path, sealer=SEALER)
        report = reopened.last_recovery
        assert not report.ok
        assert report.actions == []
        assert reopened.backend.record_count() == 3
        reopened.close()

    def test_counts_apart_by_more_than_one_is_not_a_crash(self, tmp_path):
        path = str(tmp_path / "reg.db")
        registry = _registry(SQLiteBackend(path))
        registry.append(_registry_record("alice"))
        registry.backend.append_record(_registry_record("o1", "<o1/>"))
        registry.backend.append_record(_registry_record("o2", "<o2/>"))
        registry.close()
        reopened = WatermarkRegistry.open(path, sealer=SEALER)
        assert not reopened.last_recovery.ok
        assert reopened.last_recovery.actions == []
        reopened.close()

    def test_recover_is_idempotent(self, tmp_path):
        path = str(tmp_path / "reg.db")
        _torn_with_orphan_record(path)
        registry = WatermarkRegistry.open(path, sealer=SEALER)
        first = registry.last_recovery
        assert first.ok and len(first.actions) == 1
        second = registry.recover()
        assert second.ok and second.actions == []
        assert len(registry.quarantined()) == 1
        registry.close()

    def test_memory_backend_recovers_identically(self):
        registry = _registry(MemoryBackend())
        registry.append(_registry_record("alice"))
        registry.backend.append_record(_registry_record("orphan", "<o/>"))
        report = registry.recover()
        assert report.ok
        assert [a["kind"] for a in report.actions] == ["record"]
        assert registry.verify_chain().intact
        [kept] = registry.quarantined()
        assert kept["kind"] == "record"

    def test_report_serializes(self, tmp_path):
        path = str(tmp_path / "reg.db")
        _torn_with_orphan_record(path)
        registry = WatermarkRegistry.open(path, sealer=SEALER)
        payload = registry.last_recovery.to_dict()
        assert payload["ok"] is True
        assert payload["records"] == 2 and payload["blocks"] == 2
        assert payload["verification"]["intact"] is True
        registry.close()


# ---------------------------------------------------------------------------
# CLI: wmxml ledger recover
# ---------------------------------------------------------------------------

class TestLedgerRecoverCommand:
    def test_recover_command_repairs_and_reports(self, tmp_path, capsys):
        from repro.cli import main
        path = str(tmp_path / "reg.db")
        _torn_with_orphan_record(path)
        # verify must *report* the torn registry, not silently repair it
        assert main(["ledger", "verify", "--registry", path,
                     "--key", KEY]) == 1
        capsys.readouterr()
        assert main(["ledger", "recover", "--registry", path,
                     "--key", KEY]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "ledger verifiable: yes" in out
        assert main(["ledger", "verify", "--registry", path,
                     "--key", KEY]) == 0

    def test_recover_command_reports_interior_damage(self, tmp_path,
                                                     capsys):
        from repro.cli import main
        path = str(tmp_path / "reg.db")
        registry = _registry(SQLiteBackend(path))
        for name in ("alice", "bob", "carol"):
            registry.append(_registry_record(name, f"<{name}/>"))
        registry.close()
        _forge_seal(path, index=1)
        assert main(["ledger", "recover", "--registry", path,
                     "--key", KEY]) == 1
        err = capsys.readouterr().err
        assert "chain-broken" in err


#: Quarantined payloads that hold no JSON object: torn text, nesting
#: deeper than json follows, and a value that is not an object.
UNREADABLE_PAYLOADS = {"not-json": "not json", "deep": "[" * 100_000,
                       "array": "[1]"}


class TestQuarantineListing:
    """A quarantined payload lists as its JSON object, or as its raw
    text when it holds none, whatever the text is."""

    @pytest.mark.parametrize("name", sorted(UNREADABLE_PAYLOADS))
    def test_listing_and_recover_show_the_raw_text(self, tmp_path, capsys,
                                                   name):
        from repro.cli import main
        path = str(tmp_path / "r.db")
        SQLiteBackend(path).close()
        conn = sqlite3.connect(path)
        conn.execute("INSERT INTO quarantine (kind, ref, payload, reason, "
                     "quarantined_at) VALUES ('record', 0, ?, 'torn', "
                     "'2026-01-01T00:00:00+00:00')",
                     (UNREADABLE_PAYLOADS[name],))
        conn.commit()
        conn.close()
        backend = SQLiteBackend(path)
        [listed] = backend.quarantined()
        assert listed["payload"] == UNREADABLE_PAYLOADS[name]
        backend.close()
        assert main(["ledger", "recover", "--registry", path]) == 0
        assert "(1 total in quarantine)" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(UNREADABLE_PAYLOADS))
    def test_quarantining_a_row_returns_the_raw_text(self, tmp_path, name):
        path = str(tmp_path / "r.db")
        SQLiteBackend(path).close()
        conn = sqlite3.connect(path)
        conn.execute("INSERT INTO records (sequence, recipient, "
                     "scheme_fingerprint, document_hash, payload) "
                     "VALUES (0, 'a', 's', 'd', ?)",
                     (UNREADABLE_PAYLOADS[name],))
        conn.commit()
        conn.close()
        backend = SQLiteBackend(path)
        moved = backend.quarantine_trailing("record", "torn")
        assert moved["payload"] == UNREADABLE_PAYLOADS[name]
        assert backend.record_count() == 0
        backend.close()

    def test_an_object_payload_lists_decoded(self, tmp_path):
        path = str(tmp_path / "reg.db")
        _torn_with_orphan_record(path)
        registry = WatermarkRegistry.open(path, sealer=SEALER)
        [kept] = registry.quarantined()
        assert kept["payload"]["recipient"] == "orphan"
        registry.close()


# ---------------------------------------------------------------------------
# Process-pool per-chunk recovery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pool_pipeline():
    return Pipeline(bibliography.default_scheme(2), KEY)


@pytest.fixture(scope="module")
def pool_texts():
    return [
        serialize(bibliography.generate_document(
            bibliography.BibliographyConfig(books=10, editors=3,
                                            seed=900 + index)))
        for index in range(6)
    ]


class _LoggedParse:
    """A pool task that parses its texts, logging each to a file first,
    in whichever process runs it."""

    def __init__(self, log: str) -> None:
        self.log = log

    def __call__(self, texts):
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.writelines(text + "\n" for text in texts)
        return [parse(text) for text in texts]


class TestPoolChunkRecovery:
    def test_a_raising_chunk_runs_once_more_in_the_caller(self, tmp_path):
        """An error raised in a live worker is not retried on the pool:
        the chunk runs once in this process, which raises it.  Each of
        the four chunks holds one text, as a two-worker batch cuts four
        texts."""
        log = tmp_path / "attempts.log"
        bad = "<a><b></a>"
        with pytest.raises(XMLSyntaxError):
            map_recovering(2, _LoggedParse(str(log)),
                           [("<a/>",), (bad,), ("<c/>",), ("<d/>",)])
        assert log.read_text(encoding="utf-8").splitlines().count(bad) == 2

    def test_raising_chunk_recovers_to_serial_output(self, pool_pipeline,
                                                     pool_texts):
        serial = pool_pipeline.embed_many(pool_texts, "(c) pool")
        with injected("pool.chunk", "raise", scope="worker", times=1):
            pooled = pool_pipeline.embed_many(pool_texts, "(c) pool",
                                              processes=2)
        assert [serialize(r.document) for r in pooled] == \
            [serialize(r.document) for r in serial]

    def test_a_chunk_run_in_the_caller_copies_caller_documents(
            self, pool_pipeline, pool_texts):
        """A chunk that raised in a worker runs back in this process,
        where it must mark copies, not the caller's trees."""
        documents = [parse(text, strip_whitespace=True)
                     for text in pool_texts]
        serial = pool_pipeline.embed_many(pool_texts, "(c) pool")
        with injected("pool.chunk", "raise", scope="worker", times=1):
            pooled = pool_pipeline.embed_many(documents, "(c) pool",
                                              processes=2)
        assert [serialize(r.document) for r in pooled] == \
            [serialize(r.document) for r in serial]
        assert [serialize(document) for document in documents] == pool_texts

    def test_a_chunk_run_in_the_caller_caches_no_pipeline(
            self, monkeypatch, pool_texts):
        """Only pool workers keep unpickled pipelines: a chunk run back
        in this process leaves no second copy of the caller's key."""
        monkeypatch.setattr(pipeline_mod, "_WORKER_PIPELINES", {})
        system = WmXMLSystem("caller-cache-key")
        system.register("books", bibliography.default_scheme(2))
        with injected("pool.chunk", "raise", scope="worker", times=1):
            pooled = system.embed_many("books", pool_texts, "(c) pool",
                                       processes=2, output="xml")
        assert [result.xml for result in pooled] == [
            result.xml for result in system.embed_many(
                "books", pool_texts, "(c) pool", output="xml")]
        assert pipeline_mod._WORKER_PIPELINES == {}

    def test_dying_worker_recovers_to_serial_output(self, pool_pipeline,
                                                    pool_texts):
        """mode=exit is the kill -9 of a pool worker: the pool breaks,
        the engine retries on a fresh pool, and — because every fresh
        worker inherits the armed fault and dies too — finishes the
        affected chunks serially in the (fault-immune) parent."""
        serial = pool_pipeline.embed_many(pool_texts, "(c) pool")
        with injected("pool.chunk", "exit", scope="worker"):
            pooled = pool_pipeline.embed_many(pool_texts, "(c) pool",
                                              processes=2)
        assert [serialize(r.document) for r in pooled] == \
            [serialize(r.document) for r in serial]

    def test_detect_many_survives_dying_workers(self, pool_pipeline,
                                                pool_texts):
        marked = pool_pipeline.embed_many(pool_texts, "(c) pool")
        items = [(r.document, r.record) for r in marked]
        serial = pool_pipeline.detect_many(items, expected="(c) pool")
        with injected("pool.chunk", "exit", scope="worker"):
            pooled = pool_pipeline.detect_many(items, expected="(c) pool",
                                               processes=2)
        assert all(r.detected for r in pooled)
        assert [r.to_dict() for r in pooled] == \
            [r.to_dict() for r in serial]

    def test_parent_process_is_immune_to_worker_scope(self, pool_pipeline,
                                                      pool_texts):
        with injected("pool.chunk", "raise", scope="worker"):
            serial = pool_pipeline.embed_many(pool_texts[:2], "(c) pool")
        assert len(serial) == 2
