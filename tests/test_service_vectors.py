"""Wire vectors: the exact reply bytes of both service modes.

Each line of ``tests/service_vectors/{single-key,tenant}.jsonl`` records
one :meth:`WmXMLService.dispatch` call of a fixed, seeded session: the
method and path, the status, the response headers, and the exact
``json.dumps(payload)`` text, key order kept.  The files were captured
from the two-mode service, before a ``--key`` daemon became a
one-namespace :class:`~repro.tenants.TenantDirectory`; the service must
keep answering every call with these bytes.  Never regenerate them to
make a change pass.

Only wall-clock values are masked: ``uptime_s``, ``created_at`` and the
stats ``total_ms``/``mean_ms``.

The single-key session covers healthz and stats (also with an
``Authorization: Basic`` header, which a ``--key`` daemon never reads),
embed, issue and batch embed, detect with its own record and with a
record stamped by a tenant, detect batch, record filters and paging,
ledger verify, trace (everyone, one recipient, an unknown recipient on
a one-scheme registry), scheme list/get/PUT up to ``registry-full``,
404 and 405.  The tenant session adds 401, 403, 429 under an injected
quota clock, a detect with another tenant's record, and a key rotation
whose records of both generations list under ``?scheme=``.

Run this file as a script to write a missing vector file; it never
overwrites one.
"""

import json
from pathlib import Path

import pytest

from repro.api import WmXMLSystem
from repro.datasets import bibliography
from repro.registry import WatermarkRegistry
from repro.service import REQUEST_FORMAT, WmXMLService
from repro.tenants import TenantDirectory, TenantsConfig
from repro.xmlmodel import serialize

VECTORS = Path(__file__).parent / "service_vectors"

#: Payload keys whose values are wall-clock readings.
MASKED = frozenset({"uptime_s", "created_at", "total_ms", "mean_ms"})

TENANTS = {
    "format": "wmxml-tenants-v1",
    "keys": {"1": "service-vector-master-one"},
    "tenants": {
        "acme": {},
        "globex": {"scopes": ["embed", "detect", "records", "schemes"]},
        "metered": {"quota": {"requests_per_minute": 60,
                              "request_burst": 2}},
    },
}

FORGED = "wmx1.eyJ0ZW5hbnQiOiJhY21lIn0.c2lnbmF0dXJl"


def _texts():
    return [serialize(bibliography.generate_document(
        bibliography.BibliographyConfig(books=12, editors=3,
                                        seed=500 + index)))
        for index in range(3)]


def _body(**fields) -> bytes:
    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode()


def _scheme_body(gamma: int) -> bytes:
    return json.dumps(bibliography.default_scheme(gamma).to_dict()).encode()


def _mask(value):
    if isinstance(value, dict):
        return {key: "<masked>" if key in MASKED else _mask(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_mask(item) for item in value]
    return value


class Session:
    """Dispatches calls in order and keeps one vector line per call."""

    def __init__(self, service: WmXMLService) -> None:
        self.service = service
        self.lines = []

    def call(self, method, path, body=b"", headers=None):
        status, payload, reply_headers = self.service.dispatch(
            method, path, body, headers)
        self.lines.append({
            "method": method, "path": path, "status": status,
            "headers": reply_headers,
            "body": json.dumps(_mask(payload)),
        })
        return payload


def single_key_session() -> list:
    texts = _texts()
    system = WmXMLSystem("service-vector-key", registry=WatermarkRegistry())
    system.register("books", bibliography.default_scheme(2))
    run = Session(WmXMLService(system, max_schemes=2))
    basic = {"Authorization": "Basic dXNlcjpwYXNz"}
    run.call("GET", "/v1/healthz")
    run.call("GET", "/v1/healthz", b"", basic)
    run.call("GET", "/v1/stats", b"", basic)
    owned = run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[0], message="(c) vectors"))
    alice = run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[1], recipient="alice"))
    run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[2], recipient="bob"))
    run.call("POST", "/v1/embed/batch", _body(
        scheme="books", documents=texts[:2], recipient="carol"))
    run.call("POST", "/v1/embed/batch", _body(
        scheme="books", documents=[texts[2]], message="(c) batch"))
    run.call("POST", "/v1/detect", _body(
        scheme="books", document=owned["xml"], record=owned["record"],
        expected="(c) vectors"))
    stamped = dict(owned["record"], tenant="acme", key_id=1)
    run.call("POST", "/v1/detect", _body(
        scheme="books", document=owned["xml"], record=stamped,
        expected="(c) vectors"))
    run.call("POST", "/v1/detect/batch", _body(
        scheme="books", documents=[owned["xml"], texts[0]],
        record=owned["record"]))
    run.call("POST", "/v1/detect/batch", _body(
        scheme="books", documents=[owned["xml"], alice["xml"]],
        records=[owned["record"], alice["record"]]))
    run.call("GET", "/v1/records")
    run.call("GET", "/v1/records?recipient=alice")
    run.call("GET", "/v1/records?scheme=books&offset=1&limit=3")
    run.call("GET", "/v1/records?recipient=carol&scheme="
             + system.scheme_fingerprint("books"))
    run.call("GET", "/v1/records?scheme=unknown-fingerprint")
    run.call("GET", "/v1/ledger/verify")
    run.call("POST", "/v1/trace", _body(scheme="books",
                                        document=alice["xml"]))
    run.call("POST", "/v1/trace", _body(
        scheme="books", document=alice["xml"], recipients=["alice"]))
    run.call("POST", "/v1/trace", _body(
        scheme="books", document=alice["xml"], recipients=["zed"]))
    run.call("GET", "/v1/schemes")
    books = run.call("GET", "/v1/schemes/books")
    run.call("GET", "/v1/schemes/books", b"",
             {"If-None-Match": f'"{books["fingerprint"]}"'})
    run.call("PUT", "/v1/schemes/extra-one", _scheme_body(1))
    run.call("PUT", "/v1/schemes/extra-two", _scheme_body(3))
    run.call("PUT", "/v1/schemes/extra-three", _scheme_body(4))
    run.call("PUT", "/v1/schemes/books", _scheme_body(2))
    run.call("GET", "/v1/schemes/missing")
    run.call("GET", "/v1/nope")
    run.call("GET", "/v1/embed")
    run.call("POST", "/v1/healthz")
    run.call("GET", "/v1/stats")
    run.call("GET", "/v1/healthz")
    return run.lines


def tenant_session() -> list:
    texts = _texts()
    now = [0.0]
    directory = TenantDirectory(TenantsConfig.from_dict(TENANTS),
                                registry=WatermarkRegistry(),
                                clock=lambda: now[0])
    directory.register_all("books", bibliography.default_scheme(2))
    run = Session(WmXMLService(tenants=directory, max_schemes=2))
    acme = {"Authorization": f"Bearer {directory.mint_token('acme')}"}
    globex = {"Authorization": f"Bearer {directory.mint_token('globex')}"}
    metered = {"Authorization":
               f"Bearer {directory.mint_token('metered')}"}
    run.call("GET", "/v1/healthz")
    run.call("GET", "/v1/stats")
    run.call("GET", "/v1/records", b"",
             {"Authorization": "Basic dXNlcjpwYXNz"})
    run.call("GET", "/v1/records", b"",
             {"Authorization": f"Bearer {FORGED}"})
    run.call("GET", "/v1/nope")
    run.call("GET", "/v1/stats", b"", acme)
    owned = run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[0], message="(c) vectors"), acme)
    alice = run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[1], recipient="alice"), acme)
    run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[2], recipient="bob"), acme)
    run.call("POST", "/v1/embed/batch", _body(
        scheme="books", documents=texts[:2], recipient="carol"), acme)
    foreign = run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[1], recipient="alice"), globex)
    run.call("POST", "/v1/detect", _body(
        scheme="books", document=owned["xml"], record=owned["record"],
        expected="(c) vectors"), acme)
    run.call("POST", "/v1/detect", _body(
        scheme="books", document=foreign["xml"],
        record=foreign["record"]), acme)
    run.call("POST", "/v1/detect/batch", _body(
        scheme="books", documents=[owned["xml"], alice["xml"]],
        records=[owned["record"], alice["record"]]), acme)
    run.call("GET", "/v1/records", b"", acme)
    run.call("GET", "/v1/records?recipient=alice", b"", acme)
    run.call("GET", "/v1/records?offset=1&limit=2", b"", acme)
    run.call("GET", "/v1/records", b"", globex)
    run.call("GET", "/v1/ledger/verify", b"", acme)
    run.call("POST", "/v1/trace", _body(scheme="books",
                                        document=alice["xml"]), acme)
    run.call("POST", "/v1/trace", _body(
        scheme="books", document=alice["xml"], recipients=["alice"]),
        acme)
    run.call("POST", "/v1/trace", _body(
        scheme="books", document=alice["xml"], recipients=["zed"]), acme)
    run.call("POST", "/v1/trace", _body(scheme="books",
                                        document=alice["xml"]), globex)
    run.call("PUT", "/v1/schemes/extra-one", _scheme_body(1), globex)
    run.call("GET", "/v1/schemes", b"", acme)
    run.call("GET", "/v1/schemes/books", b"", acme)
    run.call("PUT", "/v1/schemes/extra-one", _scheme_body(1), acme)
    run.call("PUT", "/v1/schemes/extra-two", _scheme_body(3), acme)
    run.call("PUT", "/v1/schemes/extra-three", _scheme_body(4), acme)
    run.call("GET", "/v1/schemes", b"", globex)
    run.call("GET", "/v1/nope", b"", acme)
    run.call("GET", "/v1/embed", b"", acme)
    run.call("GET", "/v1/stats", b"", metered)
    run.call("GET", "/v1/stats", b"", metered)
    run.call("GET", "/v1/stats", b"", metered)
    now[0] += 0.5
    run.call("GET", "/v1/stats", b"", metered)
    now[0] += 1.0
    run.call("GET", "/v1/stats", b"", metered)
    directory.keys.rotate("service-vector-master-two")
    run.call("POST", "/v1/embed", _body(
        scheme="books", document=texts[2], recipient="dave"), acme)
    run.call("GET", "/v1/records?scheme=books", b"", acme)
    run.call("GET", "/v1/records?scheme=books&offset=2&limit=3", b"",
             acme)
    run.call("GET", "/v1/records?scheme=books&recipient=alice", b"", acme)
    run.call("POST", "/v1/detect", _body(
        scheme="books", document=owned["xml"], record=owned["record"],
        expected="(c) vectors"), acme)
    run.call("GET", "/v1/stats", b"", acme)
    run.call("GET", "/v1/healthz")
    return run.lines


SESSIONS = {"single-key": single_key_session, "tenant": tenant_session}


def _vector(name):
    with open(VECTORS / f"{name}.jsonl", "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_replies_match_vectors(name):
    expected = _vector(name)
    actual = SESSIONS[name]()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"call {index}: {want['method']} {want['path']}"


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_vectors_cover_the_surface(name):
    lines = _vector(name)
    statuses = {line["status"] for line in lines}
    assert len(lines) >= 25
    assert {200, 404, 405, 507} <= statuses
    assert {"single-key": {304}, "tenant": {401, 403, 429}}[name] <= statuses
    codes = {json.loads(line["body"])["error"]["code"]
             for line in lines if line["status"] >= 400}
    assert {"unknown-recipient", "registry-full", "not-found",
            "method-not-allowed"} <= codes


if __name__ == "__main__":
    VECTORS.mkdir(exist_ok=True)
    for name, session in SESSIONS.items():
        path = VECTORS / f"{name}.jsonl"
        if path.exists():
            print(f"{path} exists; not overwritten")
            continue
        with open(path, "w", encoding="utf-8") as handle:
            for line in session():
                handle.write(json.dumps(line) + "\n")
        print(f"wrote {path}")
