"""Golden vectors for the ``wmxml-trace-v1`` bytes of a trace sweep.

A trace verifies every issued record against one suspected copy and
keeps each recipient's strongest verdict.  The files under
``tests/trace_vectors/`` hold the canonical JSON of
``TraceResult.to_dict()`` for five seeded cases, captured before the
sweep was changed to shred the suspected copy once per trace; any
change to how a trace runs must leave these bytes alone:

* ``altered-leak`` — a 10%-altered copy traced over 14 records (12
  recipients, one of them issued twice, plus an owner embed);
* ``reorganized`` — that copy reorganised to the publisher-centric
  shape and traced with ``shape=``;
* ``scan`` — the altered leak under ``strategy="scan"``, which must
  also equal the indexed bytes;
* ``tenant-rotation`` — a tenant-directory trace over records of two
  key generations, taken after ``rotate()``;
* ``fingerprinter`` — :meth:`Fingerprinter.trace` of a 10%-altered
  leak over 12 seeded copies, one per recipient (captured before the
  class was folded into :class:`WmXMLSystem`).

A system verifies recipients' records under warm verifiers it holds
apart from its one pipeline LRU, up to ``VERIFIER_BUDGET_QUERIES``
stored queries; the bytes must not depend on which records got one.
"""

import json
import sqlite3
import sys
import threading
from pathlib import Path

import pytest

import repro.api.system as system_mod
from repro.api import Fingerprinter, WmXMLSystem
from repro.attacks import ReorganizationAttack, ValueAlterationAttack
from repro.datasets import bibliography
from repro.datasets.bibliography import BibliographyConfig
from repro.registry import RegistryRecord, SQLiteBackend, WatermarkRegistry
from repro.tenants import TenantDirectory, TenantsConfig
from repro.xmlmodel import parse, serialize

VECTORS = Path(__file__).parent / "trace_vectors"

KEY = "trace-vector-key"
RECIPIENTS = [f"r{index:02d}" for index in range(12)]
LEAKER = "r05"

TENANTS = {
    "format": "wmxml-tenants-v1",
    "keys": {"1": "trace-vector-master-one"},
    "tenants": {"acme": {}, "globex": {}},
}


def canonical(trace) -> str:
    """The canonical JSON form of a trace: sorted keys, no spaces."""
    return json.dumps(trace.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def _texts(count, books=30):
    return [serialize(bibliography.generate_document(
        BibliographyConfig(books=books, editors=4, seed=100 + index)))
        for index in range(count)]


def _altered(document, seed=7):
    return ValueAlterationAttack(0.1, seed=seed).apply(document).document


def build_corpus(registry=None):
    """A system holding 14 seeded records; returns (system, leak)."""
    if registry is None:
        registry = WatermarkRegistry()
    system = WmXMLSystem(KEY, registry=registry)
    system.register("books", bibliography.default_scheme(2))
    texts = _texts(4)
    copies = {}
    system.embed("books", parse(texts[0]), "(c) trace vectors")
    for index, name in enumerate(RECIPIENTS):
        copies[name] = system.issue("books", parse(texts[index % 4]), name)
    system.issue("books", parse(texts[1]), "r03")
    return system, _altered(copies[LEAKER].document)


def trace_altered_leak():
    system, leak = build_corpus()
    return system.trace("books", leak)


def trace_reorganized():
    system, leak = build_corpus()
    moved = ReorganizationAttack(bibliography.book_shape(),
                                 bibliography.publisher_shape()) \
        .apply(leak).document
    return system.trace("books", moved,
                        shape=bibliography.publisher_shape())


def trace_scan():
    system, leak = build_corpus()
    return system.trace("books", leak, strategy="scan")


def build_rotated_directory(registry=None):
    """Records of two key generations (and a second tenant's copy)."""
    if registry is None:
        registry = WatermarkRegistry()
    directory = TenantDirectory(TenantsConfig.from_dict(TENANTS),
                                registry=registry)
    directory.register_all("books", bibliography.default_scheme(1))
    texts = _texts(3, books=20)
    old = directory.system("acme")
    copies = {name: old.issue("books", parse(texts[index]), name)
              for index, name in enumerate(("ada", "bo", "cy"))}
    old.embed("books", parse(texts[0]), "acme owner copy")
    directory.system("globex").issue("books", parse(texts[0]), "ada")
    directory.keys.rotate("trace-vector-master-two")
    new = directory.system("acme")
    for index, name in enumerate(("bo", "dee", "eve")):
        copies[f"{name}@2"] = new.issue("books", parse(texts[index]),
                                        name)
    new.embed("books", parse(texts[2]), "acme owner copy")
    return directory, _altered(copies["bo"].document, seed=11)


def trace_tenant_rotation():
    directory, leak = build_rotated_directory()
    return directory.trace("acme", "books", leak)


def trace_fingerprinter():
    fingerprinter = Fingerprinter(bibliography.default_scheme(2), KEY)
    texts = _texts(4)
    copies = {name: fingerprinter.issue(parse(texts[index % 4]), name)
              for index, name in enumerate(RECIPIENTS)}
    return fingerprinter.trace(_altered(copies[LEAKER].document))


CASES = {
    "altered-leak": trace_altered_leak,
    "reorganized": trace_reorganized,
    "scan": trace_scan,
    "tenant-rotation": trace_tenant_rotation,
    "fingerprinter": trace_fingerprinter,
}
# The cases built over a registry the test hands in; a ``Fingerprinter``
# keeps its records in a registry of its own.
REGISTRY_CASES = sorted(set(CASES) - {"fingerprinter"})


def _vector(name):
    return (VECTORS / f"{name}.json").read_text(encoding="utf-8").rstrip(
        "\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_bytes_match_vector(name):
    assert canonical(CASES[name]()) == _vector(name)


def test_vectors_accuse_the_leaker():
    assert json.loads(_vector("altered-leak"))["prime_suspect"] == LEAKER
    assert json.loads(_vector("reorganized"))["prime_suspect"] == LEAKER
    assert json.loads(_vector("tenant-rotation"))["prime_suspect"] == "bo"
    assert json.loads(_vector("fingerprinter"))["prime_suspect"] == LEAKER


def test_every_record_is_verdicted():
    verdicts = json.loads(_vector("altered-leak"))["verdicts"]
    assert sorted(verdicts) == sorted(RECIPIENTS + ["(c) trace vectors"])
    tenant = json.loads(_vector("tenant-rotation"))["verdicts"]
    assert sorted(tenant) == ["acme owner copy", "ada", "bo", "cy", "dee",
                              "eve"]


def test_indexed_equals_scan():
    system, leak = build_corpus()
    indexed = system.trace("books", leak)
    scan = system.trace("books", leak, strategy="scan")
    assert canonical(indexed) == canonical(scan) == _vector("scan")


def _tracer(name, registry):
    """Build case ``name`` over ``registry``; returns its trace call."""
    if name == "tenant-rotation":
        directory, leak = build_rotated_directory(registry)
        return lambda: directory.trace("acme", "books", leak)
    system, leak = build_corpus(registry)
    if name == "reorganized":
        moved = ReorganizationAttack(bibliography.book_shape(),
                                     bibliography.publisher_shape()) \
            .apply(leak).document
        return lambda: system.trace("books", moved,
                                    shape=bibliography.publisher_shape())
    strategy = "scan" if name == "scan" else "auto"
    return lambda: system.trace("books", leak, strategy=strategy)


@pytest.mark.parametrize("name", REGISTRY_CASES)
def test_sqlite_trace_bytes_match_vector_cold_and_warm(name, tmp_path):
    """The vectors hold over the SQLite read path, whose second trace
    reuses the records the first decoded, and no trace mutates them."""
    path = str(tmp_path / "trace.db")
    registry = WatermarkRegistry(SQLiteBackend(path))
    trace = _tracer(name, registry)
    assert canonical(trace()) == _vector(name)
    assert canonical(trace()) == _vector(name)
    conn = sqlite3.connect(path)
    rows = dict(conn.execute("SELECT sequence, payload FROM records"))
    conn.close()
    records = registry.records()
    assert len(records) == len(rows)
    for record in records:
        fresh = RegistryRecord.from_dict(json.loads(rows[record.sequence]))
        assert record.to_dict() == fresh.to_dict()
    registry.close()


# -- the verifier map ----------------------------------------------------------


@pytest.fixture
def small_budget(monkeypatch):
    """``cut(queries)`` lowers the verifier budget to ``queries`` and
    returns the systems that looked verifiers up, keyed by ``id``."""
    seen = {}
    original = WmXMLSystem._verifier

    def recording(self, resolved, content, entry):
        seen[id(self)] = self
        return original(self, resolved, content, entry)

    monkeypatch.setattr(WmXMLSystem, "_verifier", recording)

    def cut(queries):
        monkeypatch.setattr(system_mod, "VERIFIER_BUDGET_QUERIES", queries)
        return seen

    return cut


@pytest.mark.parametrize("name", REGISTRY_CASES)
def test_trace_bytes_hold_past_the_verifier_budget(name, small_budget):
    """With room for about three records' queries, the records past the
    budget verify under fresh pipelines, and the bytes stay the same."""
    registry = WatermarkRegistry()
    trace = _tracer(name, registry)
    recipient_records = [entry for entry in registry.records()
                         if entry.keying == "recipient"]
    budget = 3 * len(recipient_records[0].record.queries)
    systems = small_budget(budget)
    for _ in range(2):
        assert canonical(trace()) == _vector(name)
    assert systems
    held = sum(len(system._verified) for system in systems.values())
    assert 0 < held < len(recipient_records)
    for system in systems.values():
        assert 0 < system._verifier_queries <= budget
        assert len(system._verifiers) <= len(system._verified)


def test_trace_leaves_the_issuance_lru_as_it_found_it():
    system = WmXMLSystem(KEY, registry=WatermarkRegistry())
    system.register("books", bibliography.default_scheme(1))
    text = _texts(1, books=5)[0]
    for index in range(100):
        system.issue("books", parse(text), f"r{index:03d}")
    pipeline = system.recipient_pipeline("books", "r099")
    before = list(system._pipelines.items())
    assert len(before) == system_mod.CONTENT_CACHE_MAX
    system.trace("books", parse(text))
    assert list(system._pipelines.items()) == before
    assert system.recipient_pipeline("books", "r099") is pipeline


def test_row_rewritten_after_a_warm_trace_is_rejected(tmp_path):
    """A warm verifier's memos hold the key's own derivations, so a
    stored bit index rewritten on disk is still refused."""
    path = str(tmp_path / "trace.db")
    registry = WatermarkRegistry(SQLiteBackend(path))
    system, leak = build_corpus(registry)
    assert canonical(system.trace("books", leak)) == _vector("altered-leak")
    (entry,) = registry.records(recipient=LEAKER)

    conn = sqlite3.connect(path)
    payload = json.loads(conn.execute(
        "SELECT payload FROM records WHERE sequence = ?",
        (entry.sequence,)).fetchone()[0])
    first = payload["record"]["queries"][0]
    first["bit_index"] = (first["bit_index"] + 1) \
        % payload["record"]["nbits"]
    conn.execute("UPDATE records SET payload = ? WHERE sequence = ?",
                 (json.dumps(payload), entry.sequence))
    conn.commit()
    conn.close()

    trace = system.trace("books", leak)
    verdict = trace.verdicts[LEAKER]
    assert verdict.queries_rejected == 1
    assert not verdict.detected
    assert trace.accused == []
    registry.close()


@pytest.mark.parametrize("budget_records", [None, 3])
def test_concurrent_traces_agree(small_budget, budget_records):
    """4 threads trace one system at once: every reply has the vector's
    bytes, and the map never holds more than the budget."""
    system, leak = build_corpus()
    budget = system_mod.VERIFIER_BUDGET_QUERIES
    if budget_records is not None:
        first = next(entry for entry in system.registry.records()
                     if entry.keying == "recipient")
        budget = budget_records * len(first.record.queries)
        small_budget(budget)
    replies, failures = [], []

    def tracer():
        try:
            for _ in range(3):
                replies.append(canonical(system.trace("books", leak)))
        except Exception as error:  # reported below, not swallowed
            failures.append(error)

    threads = [threading.Thread(target=tracer, daemon=True)
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            thread.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert replies == [_vector("altered-leak")] * 12
    assert 0 < system._verifier_queries <= budget
    charged = {sequence for _, sequence in system._verified}
    assert len(charged) == len(system._verified)
    assert system._verifier_queries == sum(
        len(entry.record.queries) for entry in system.registry.records()
        if entry.sequence in charged)
