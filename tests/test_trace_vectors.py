"""Golden vectors for the ``wmxml-trace-v1`` bytes of a trace sweep.

A trace verifies every issued record against one suspected copy and
keeps each recipient's strongest verdict.  The files under
``tests/trace_vectors/`` hold the canonical JSON of
``TraceResult.to_dict()`` for four seeded cases, captured before the
sweep was changed to shred the suspected copy once per trace; any
change to how a trace runs must leave these bytes alone:

* ``altered-leak`` — a 10%-altered copy traced over 14 records (12
  recipients, one of them issued twice, plus an owner embed);
* ``reorganized`` — that copy reorganised to the publisher-centric
  shape and traced with ``shape=``;
* ``scan`` — the altered leak under ``strategy="scan"``, which must
  also equal the indexed bytes;
* ``tenant-rotation`` — a tenant-directory trace over records of two
  key generations, taken after ``rotate()``.
"""

import json
import sqlite3
from pathlib import Path

import pytest

from repro.api import WmXMLSystem
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


CASES = {
    "altered-leak": trace_altered_leak,
    "reorganized": trace_reorganized,
    "scan": trace_scan,
    "tenant-rotation": trace_tenant_rotation,
}


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


@pytest.mark.parametrize("name", sorted(CASES))
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
