"""Durable registry storage on SQLite.

Schema v1 — three append-only tables plus a meta table::

    registry_meta(key TEXT PRIMARY KEY, value TEXT)
    records(sequence INTEGER PRIMARY KEY, recipient, scheme_fingerprint,
            document_hash, payload TEXT)          -- payload = record JSON
    ledger(idx INTEGER PRIMARY KEY, payload TEXT) -- payload = block JSON
    quarantine(qid INTEGER PRIMARY KEY, kind, ref, payload, reason,
               quarantined_at)                    -- crash-recovery morgue

The filter columns the ISSUE names are first-class indexed columns
(``idx_records_recipient`` / ``idx_records_scheme`` /
``idx_records_document``); the full artefact rides along as its
canonical ``wmxml-registry-record-v1`` JSON so nothing is lossy and the
export/import tooling round-trips bit-for-bit.

Crash safety
------------

The database runs in WAL mode with a busy timeout: a reader never
blocks the appender, a second process waits instead of failing with
``database is locked``, and a ``kill -9`` mid-write rolls back to the
last committed transaction on the next open.  On top of that,
:meth:`SQLiteBackend.append_entries` commits records **and** their
ledger blocks in one transaction (a single append is a batch of one),
so the record corpus and the chain can never tear apart inside the
append path — the ``registry.sqlite.commit`` / ``registry.append.torn``
fault points exist to prove exactly that.

Runtime storage failures (disk I/O errors, lock timeouts) surface as
:class:`~repro.registry.errors.RegistryUnavailableError` — the
transient, retry-after-a-pause condition the service degrades on —
while a database that is structurally not ours stays a plain
:class:`~repro.registry.errors.RegistryError` at open.

Forward compatibility is strict: a database whose ``schema_version`` is
*newer* than :data:`SCHEMA_VERSION` is refused with
:class:`~repro.registry.errors.RegistrySchemaError` — opening it could
silently corrupt artefacts a later version wrote.

The connection is shared across threads (``check_same_thread=False``)
behind one lock, matching the service daemon's threading model.

Decode reuse
------------

Every trace re-reads each issued record, so a backend keeps the
records it has decoded and hands one back while the row's stored
payload text is *identical* to the text it was decoded from.  Reuse is
exact: a row rewritten on disk, or a sequence that recovery
quarantined and a later append reused, decodes afresh, so tampering
still breaks ``verify_chain()`` on a live daemon.  Held decodes are
bounded by :data:`DECODE_BUDGET_CHARS` (8 MiB) of payload text; once
it is full a read decodes exactly as if nothing were held, and nothing
is evicted: every trace scans the corpus in sequence order, so an LRU
would thrash on any corpus larger than the budget.  Returned records
are shared with every later caller and must be treated as read-only,
as :class:`~repro.registry.backend.MemoryBackend`'s always were.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import sqlite3
import threading
from typing import Iterator, Optional

from repro.faults import fault_point
from repro.registry.backend import RegistryBackend
from repro.registry.errors import (RegistryError, RegistryFormatError,
                                   RegistrySchemaError,
                                   RegistryUnavailableError)
from repro.registry.ledger import LedgerBlock
from repro.registry.records import RegistryRecord
from repro.serialize import load_json_object

#: Schema version this code reads and writes.  The ``quarantine``
#: table was added within v1: it is purely additive (older code
#: ignores it), so it does not bump the version.
SCHEMA_VERSION = 1

#: How long a writer waits on a locked database before giving up
#: (milliseconds).  Five seconds outlasts any real append burst while
#: still turning a wedged filesystem into a clean
#: ``registry-unavailable`` instead of a hung request thread.
BUSY_TIMEOUT_MS = 5000

#: Payload text (characters of record JSON) whose decoded records one
#: backend holds for reuse.  Held decodes cost about 5x their text in
#: RSS: with this budget full (8.0 MiB held of 800 issued 20-book
#: copies), one read of every row grew a process by 42.4 MiB, against
#: 10.8 MiB for a read that holds nothing.
DECODE_BUDGET_CHARS = 8 * 1024 * 1024

_SCHEMA = """
CREATE TABLE IF NOT EXISTS registry_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    sequence            INTEGER PRIMARY KEY,
    recipient           TEXT NOT NULL,
    scheme_fingerprint  TEXT NOT NULL,
    document_hash       TEXT NOT NULL,
    tenant              TEXT NOT NULL DEFAULT '',
    payload             TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_recipient
    ON records (recipient);
CREATE INDEX IF NOT EXISTS idx_records_scheme
    ON records (scheme_fingerprint);
CREATE INDEX IF NOT EXISTS idx_records_document
    ON records (document_hash);
CREATE TABLE IF NOT EXISTS ledger (
    idx     INTEGER PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    qid            INTEGER PRIMARY KEY,
    kind           TEXT NOT NULL,
    ref            INTEGER NOT NULL,
    payload        TEXT NOT NULL,
    reason         TEXT NOT NULL,
    quarantined_at TEXT NOT NULL
);
"""


def _decode_block(index: int, payload: str) -> LedgerBlock:
    return LedgerBlock.from_dict(load_json_object(
        payload, RegistryFormatError, f"ledger block {index}"))


def _listed(payload: str):
    """A quarantined payload as listed: its JSON object, or the raw
    text when it holds none (torn, too deep, not an object)."""
    try:
        return load_json_object(payload, RegistryFormatError,
                                "quarantined payload")
    except RegistryFormatError:
        return payload


class SQLiteBackend(RegistryBackend):
    """Registry storage in a single SQLite file (or ``":memory:"``)."""

    def __init__(self, path: str,
                 busy_timeout_ms: int = BUSY_TIMEOUT_MS) -> None:
        self.path = path
        self._lock = threading.Lock()
        #: sequence -> (payload text, record decoded from it).
        self._decoded: dict[int, tuple[str, RegistryRecord]] = {}
        self._decoded_chars = 0
        self._decoded_lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False)
        except sqlite3.Error as error:
            raise RegistryError(
                f"cannot open registry database {path!r}: {error}"
            ) from error
        try:
            self._init_schema(busy_timeout_ms)
        except sqlite3.Error as error:
            self._conn.close()
            raise RegistryError(
                f"{path!r} is not a wmxml registry database: {error}"
            ) from error
        except Exception:
            self._conn.close()
            raise

    def _init_schema(self, busy_timeout_ms: int) -> None:
        with self._lock, self._conn:
            # Crash-safety pragmas before any write.  WAL survives a
            # kill -9 mid-commit (the torn transaction rolls back on
            # the next open) and lets readers run beside the appender;
            # synchronous=NORMAL is the WAL-safe durability point;
            # busy_timeout turns cross-process lock contention into a
            # bounded wait.  ":memory:" and filesystems without WAL
            # support report a different active mode instead of
            # raising — the pragmas are best-effort by design.
            self._conn.execute(f"PRAGMA busy_timeout = {busy_timeout_ms}")
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
            self._conn.executescript(_SCHEMA)
            # Additive within-v1 migration (same rule as the quarantine
            # table: older code ignores the column, so no version
            # bump): pre-tenancy databases lack ``records.tenant`` —
            # add it, defaulting every existing row to the "" (single-
            # tenant) namespace, then index it.  The index lives here
            # rather than in _SCHEMA because it must come after the
            # ALTER on old databases.
            columns = {info[1] for info in self._conn.execute(
                "PRAGMA table_info(records)")}
            if "tenant" not in columns:
                self._conn.execute(
                    "ALTER TABLE records ADD COLUMN tenant TEXT "
                    "NOT NULL DEFAULT ''")
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_records_tenant "
                "ON records (tenant)")
            row = self._conn.execute(
                "SELECT value FROM registry_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO registry_meta (key, value) VALUES "
                    "('schema_version', ?)", (str(SCHEMA_VERSION),))
                return
            try:
                found = int(row[0])
            except ValueError as error:
                raise RegistrySchemaError(
                    f"registry {self.path!r} has a non-numeric "
                    f"schema_version {row[0]!r}") from error
            if found > SCHEMA_VERSION:
                raise RegistrySchemaError(
                    f"registry {self.path!r} uses schema version {found}, "
                    f"newer than the supported version {SCHEMA_VERSION}; "
                    "refusing to open it — upgrade wmxml, or export/import "
                    "through `wmxml records --export jsonl`")

    @contextlib.contextmanager
    def _guarded(self, operation: str):
        """Runtime sqlite failures -> ``registry-unavailable``.

        A disk I/O error or a lock timeout during normal operation is
        a transient storage outage, not a protocol bug — the service
        degrades on this error class instead of crashing.
        """
        try:
            yield
        except (RegistryError, RegistryUnavailableError):
            raise
        except (sqlite3.Error, OSError) as error:
            # OSError covers the layer *under* sqlite: a vanished
            # file, a full disk, a dying mount — same outage class.
            raise RegistryUnavailableError(
                f"registry storage {self.path!r} failed during "
                f"{operation}: {error}") from error

    # -- records ------------------------------------------------------------

    def _next_sequence(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(sequence) + 1, 0) FROM records"
        ).fetchone()
        return int(row[0])

    def _insert_record(self, record: RegistryRecord) -> int:
        sequence = self._next_sequence()
        record.sequence = sequence
        self._conn.execute(
            "INSERT INTO records (sequence, recipient, "
            "scheme_fingerprint, document_hash, tenant, payload) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (sequence, record.recipient, record.scheme_fingerprint,
             record.document_hash, record.tenant or "",
             json.dumps(record.to_dict())))
        return sequence

    def _insert_block(self, block: LedgerBlock) -> None:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(idx) + 1, 0) FROM ledger").fetchone()
        if block.index != int(row[0]):
            raise RegistryError(
                f"ledger append out of order: block {block.index} "
                f"onto a {int(row[0])}-block chain")
        self._conn.execute(
            "INSERT INTO ledger (idx, payload) VALUES (?, ?)",
            (block.index, json.dumps(block.to_dict())))

    def append_record(self, record: RegistryRecord) -> int:
        with self._lock, self._guarded("append"), self._conn:
            return self._insert_record(record)

    def append_entries(self, entries) -> list[int]:
        """(record, block) pairs in **one** transaction; a single
        append is a batch of one.

        A crash (or an injected fault) anywhere inside rolls every row
        back together — no orphan record, no orphan block.  A batch
        (the ``embed_many`` path) costs one fsync instead of one per
        record, and a failure persists *nothing* — which is what makes
        a client retry after a 503 append-safe.
        """
        with self._lock, self._guarded("append"), self._conn:
            sequences = []
            for record, block in entries:
                sequences.append(self._insert_record(record))
                fault_point("registry.append.torn")
                self._insert_block(block)
            fault_point("registry.sqlite.commit")
            return sequences

    def record_count(self) -> int:
        with self._lock, self._guarded("count"):
            fault_point("registry.sqlite.read")
            row = self._conn.execute(
                "SELECT COUNT(*) FROM records").fetchone()
            return int(row[0])

    def _decode(self, sequence: int, payload: str) -> RegistryRecord:
        """The record ``payload`` encodes, reused while the text matches.

        Only the lookup and the insert hold the lock; decoding runs
        outside it and outside the connection lock.
        """
        with self._decoded_lock:
            held = self._decoded.get(sequence)
        if held is not None and held[0] == payload:
            return held[1]
        record = RegistryRecord.from_dict(load_json_object(
            payload, RegistryFormatError, f"record {sequence}"))
        with self._decoded_lock:
            stale = self._decoded.pop(sequence, None)
            if stale is not None:
                self._decoded_chars -= len(stale[0])
            if self._decoded_chars + len(payload) <= DECODE_BUDGET_CHARS:
                self._decoded[sequence] = (payload, record)
                self._decoded_chars += len(payload)
        return record

    def get_record(self, sequence: int) -> Optional[RegistryRecord]:
        with self._lock, self._guarded("lookup"):
            row = self._conn.execute(
                "SELECT payload FROM records WHERE sequence = ?",
                (sequence,)).fetchone()
        if row is None:
            return None
        return self._decode(sequence, row[0])

    def find_records(self, recipient: Optional[str] = None,
                     scheme_fingerprint: Optional[str] = None,
                     document_hash: Optional[str] = None,
                     tenant: Optional[str] = None
                     ) -> list[RegistryRecord]:
        clauses, params = [], []
        for column, value in (("recipient", recipient),
                              ("scheme_fingerprint", scheme_fingerprint),
                              ("document_hash", document_hash),
                              ("tenant", tenant)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock, self._guarded("query"):
            fault_point("registry.sqlite.read")
            rows = self._conn.execute(
                "SELECT sequence, payload FROM records" + where
                + " ORDER BY sequence", params).fetchall()
        return [self._decode(sequence, payload) for sequence, payload in rows]

    def recipients(self) -> list[str]:
        with self._lock, self._guarded("query"):
            fault_point("registry.sqlite.read")
            rows = self._conn.execute(
                "SELECT DISTINCT recipient FROM records "
                "ORDER BY recipient").fetchall()
        return [row[0] for row in rows]

    # -- ledger ------------------------------------------------------------

    def append_block(self, block: LedgerBlock) -> None:
        with self._lock, self._guarded("append"), self._conn:
            self._insert_block(block)

    def block_count(self) -> int:
        with self._lock, self._guarded("count"):
            row = self._conn.execute(
                "SELECT COUNT(*) FROM ledger").fetchone()
            return int(row[0])

    def last_block(self) -> Optional[LedgerBlock]:
        with self._lock, self._guarded("lookup"):
            row = self._conn.execute(
                "SELECT idx, payload FROM ledger ORDER BY idx DESC LIMIT 1"
            ).fetchone()
        if row is None:
            return None
        return _decode_block(*row)

    def iter_blocks(self) -> Iterator[LedgerBlock]:
        with self._lock, self._guarded("query"):
            rows = self._conn.execute(
                "SELECT idx, payload FROM ledger ORDER BY idx").fetchall()
        return iter([_decode_block(*row) for row in rows])

    # -- quarantine ------------------------------------------------------------

    def quarantine_trailing(self, kind: str,
                            reason: str) -> Optional[dict]:
        """Move the newest record/block row into the quarantine morgue.

        Crash recovery's tool: the torn tail is preserved for forensic
        inspection (never deleted) while the live tables return to a
        verifiable state.  Returns the quarantined payload, or ``None``
        when the table is empty.
        """
        table, column = (("records", "sequence") if kind == "record"
                         else ("ledger", "idx"))
        with self._lock, self._guarded("quarantine"), self._conn:
            row = self._conn.execute(
                f"SELECT {column}, payload FROM {table} "
                f"ORDER BY {column} DESC LIMIT 1").fetchone()
            if row is None:
                return None
            ref, payload = int(row[0]), row[1]
            self._conn.execute(
                "INSERT INTO quarantine (kind, ref, payload, reason, "
                "quarantined_at) VALUES (?, ?, ?, ?, ?)",
                (kind, ref, payload, reason,
                 datetime.datetime.now(
                     datetime.timezone.utc).isoformat()))
            self._conn.execute(
                f"DELETE FROM {table} WHERE {column} = ?", (ref,))
        return {"kind": kind, "ref": ref, "payload": _listed(payload),
                "reason": reason}

    def quarantined(self) -> list[dict]:
        """Every quarantined row, oldest first."""
        with self._lock, self._guarded("query"):
            rows = self._conn.execute(
                "SELECT kind, ref, payload, reason, quarantined_at "
                "FROM quarantine ORDER BY qid").fetchall()
        return [{"kind": kind, "ref": ref, "payload": _listed(payload),
                 "reason": reason, "quarantined_at": at}
                for kind, ref, payload, reason, at in rows]

    def close(self) -> None:
        with self._lock:
            self._conn.close()
