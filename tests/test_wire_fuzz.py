"""A seeded fuzz target for the wire: no mutated request faults the daemon.

One valid envelope per request kind — embed by name and inline with a
recipient, ``embed/batch``, detect with a shape and with ``scan``,
``detect/batch`` with per-item records, trace with recipients and with
a shape, and a ``PUT /v1/schemes/{name}`` body — is mutated one to
three times: a member at any depth is replaced, deleted or given a new
sibling, with values of every JSON type.  Each mutated request goes
through :meth:`WmXMLService.dispatch` in both service modes, over a
SQLite registry.  Whatever the mutation, the reply is an envelope: never
a 5xx other than 503, and never the catch-all ``internal-error``.

``TestClientInputIsNeverAServerFault`` in ``tests/test_service.py``
pins the input that once did reach a 500; this target looks for the
next one.  Raise ``REQUESTS`` or vary ``SEED`` to search further.
"""

import copy
import json
import random

import pytest

from repro.api import WmXMLSystem
from repro.datasets import bibliography
from repro.registry import WatermarkRegistry
from repro.service import REQUEST_FORMAT, WmXMLService
from repro.tenants import TenantDirectory, TenantsConfig
from repro.xmlmodel import serialize

KEY = "wire-fuzz-key"
SEED = 2201
REQUESTS = 2000

#: Values of every JSON type; some are valid in some field.
VALUES = (None, True, False, 0, 1, 2, -1, 2 ** 70, 1.5, -0.5, 1e308,
          float("inf"), "", "x", "hi", "books", "traced", "alice", "scan",
          "indexed", "auto", "wmxml-request-v1", "wmxml-record-v1",
          "<a/>", "<db><book/></db>", [], [0], ["x"], [None], [[]], {},
          {"a": 1}, {"format": "wmxml-record-v1"})

#: Names a new member takes: request, record, query, scheme and shape
#: fields, and one no reader knows.
NAMES = ("format", "scheme", "document", "documents", "message",
         "recipient", "recipients", "record", "records", "expected",
         "strategy", "shape", "gamma", "nbits", "queries", "identity",
         "algorithm", "params", "key_id", "tenant", "carriers", "name",
         "nesting", "levels", "tag", "zz")


def _value(rng):
    return copy.deepcopy(rng.choice(VALUES))


def _member(rng, body):
    """A random ``(container, key)`` of ``body``: walk down from the
    root, stopping at each level with even odds."""
    container, key, value = None, None, body
    while isinstance(value, (dict, list)) and value:
        container = value
        key = rng.choice(list(value) if isinstance(value, dict)
                         else range(len(value)))
        value = container[key]
        if rng.random() < 0.5:
            break
    return container, key


def _mutate(rng, body) -> None:
    container, key = _member(rng, body)
    if container is None:
        return
    operation = rng.randrange(3)
    if operation == 0:
        container[key] = _value(rng)
    elif operation == 1:
        del container[key]
    elif isinstance(container, dict):
        container[rng.choice(NAMES)] = _value(rng)
    else:
        container.insert(rng.randint(0, len(container)), _value(rng))


def _body(**fields) -> bytes:
    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode()


@pytest.fixture(scope="module", params=["single-key", "tenants"])
def wire(request, tmp_path_factory):
    """``(service, headers, seeds)`` in one service mode, where each
    seed is a valid ``(method, path, body object)``."""
    path = str(tmp_path_factory.mktemp("wire-fuzz") / "registry.db")
    registry = WatermarkRegistry.open(path)
    books = bibliography.default_scheme(2)
    if request.param == "single-key":
        system = WmXMLSystem(KEY, registry=registry)
        service, headers = WmXMLService(system), {}
        register = system.register
    else:
        directory = TenantDirectory(TenantsConfig.from_dict({
            "format": "wmxml-tenants-v1", "keys": {"1": KEY},
            "tenants": {"acme": {}}}), registry=registry)
        service = WmXMLService(tenants=directory)
        headers = {"Authorization":
                   f"Bearer {directory.mint_token('acme')}"}
        register = directory.register_all
    register("books", books)
    # Traces sweep a scheme of their own, so the copies the fuzzed
    # embeds issue under "books" leave a trace's cost unchanged.
    register("traced", bibliography.default_scheme(3))
    text = serialize(bibliography.generate_document(
        bibliography.BibliographyConfig(books=4, editors=2, seed=22)))

    def issue(**fields):
        status, payload, _ = service.dispatch(
            "POST", "/v1/embed", _body(document=text, **fields), headers)
        assert status == 200, payload
        return payload

    owned = issue(scheme="books", message="hi")
    alice = issue(scheme="traced", recipient="alice")
    issue(scheme="traced", recipient="bob")
    shape = books.shape.to_dict()
    moved = bibliography.publisher_shape().to_dict()
    seeds = [
        ("POST", "/v1/embed", {"scheme": "books", "document": text,
                               "message": "hi"}),
        ("POST", "/v1/embed", {"scheme": books.to_dict(),
                               "document": text, "recipient": "carol"}),
        ("POST", "/v1/embed/batch", {"scheme": "books",
                                     "documents": [text, text],
                                     "message": "hi"}),
        ("POST", "/v1/detect", {"scheme": "books", "document": owned["xml"],
                                "record": owned["record"],
                                "expected": "hi", "shape": shape}),
        ("POST", "/v1/detect", {"scheme": "books", "document": owned["xml"],
                                "record": owned["record"],
                                "strategy": "scan"}),
        ("POST", "/v1/detect/batch", {
            "scheme": "books", "documents": [owned["xml"], alice["xml"]],
            "records": [owned["record"], alice["record"]]}),
        ("POST", "/v1/trace", {"scheme": "traced", "document": alice["xml"],
                               "recipients": ["alice", "bob"]}),
        ("POST", "/v1/trace", {"scheme": "traced", "document": alice["xml"],
                               "shape": moved}),
        ("PUT", "/v1/schemes/fuzzed", books.to_dict()),
    ]
    for method, path, body in seeds:
        data = (json.dumps(body).encode() if method == "PUT"
                else _body(**body))
        status, payload, _ = service.dispatch(method, path, data, headers)
        assert status == 200, (path, payload)
    yield service, headers, seeds
    registry.close()


def test_mutated_requests_never_fault_the_daemon(wire):
    service, headers, seeds = wire
    rng = random.Random(SEED)
    statuses = {}
    faults = []
    for _ in range(REQUESTS):
        method, path, body = rng.choice(seeds)
        if method == "POST":
            body = {"format": REQUEST_FORMAT, **body}
        body = copy.deepcopy(body)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, body)
        status, payload, _ = service.dispatch(
            method, path, json.dumps(body).encode(), headers)
        statuses[status] = statuses.get(status, 0) + 1
        code = ((payload or {}).get("error") or {}).get("code")
        if (status >= 500 and status != 503) or code == "internal-error":
            faults.append((path, status, code, json.dumps(body)[:300]))
    assert faults == []
    # The mutations reach past the envelope checks: some requests are
    # still served, and most are refused as client errors.
    assert statuses.get(200, 0) >= REQUESTS // 10
    assert sum(count for status, count in statuses.items()
               if 400 <= status < 500) >= REQUESTS // 3
