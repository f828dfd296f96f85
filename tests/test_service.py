"""The HTTP service boundary: protocol, golden equivalence, resilience.

Four contracts:

* **Protocol** — ``WmXMLService.dispatch`` maps every request to the
  versioned ``wmxml-response-v1`` envelope, and every failure to the
  stable ``code`` slug + HTTP status from the one table in
  :mod:`repro.errors` (no traceback ever crosses the wire).
* **Interchangeability** — ``WmXMLClient`` and ``Pipeline`` are the
  same pipeline behind two transports: embeds and detects routed
  through a live loopback daemon are *bit-identical* to local results,
  including the PR 1 golden vectors and a batch served by the process
  pool (``processes=2``).
* **Concurrency** — ThreadingHTTPServer + compiled-pipeline thread
  safety: parallel clients all get the identical bytes.
* **Resilience** — the client retries connection-refused (a daemon
  still starting) and surfaces remote errors with their codes.
"""

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Pipeline, WmXMLSystem
from repro.core.watermark import MAX_WATERMARK_BITS
from repro.datasets import bibliography
from repro.errors import WmXMLError
from repro.registry import WatermarkRegistry
from repro.service import (
    FINGERPRINT_HEADER,
    PROTOCOL_HEADER,
    REQUEST_FORMAT,
    RESPONSE_FORMAT,
    RemoteServiceError,
    ServiceUnavailableError,
    WmXMLClient,
    WmXMLService,
    running_server,
)
from repro.tenants import TenantDirectory, TenantsConfig
from repro.xmlmodel import serialize

KEY = "golden-key-bib"
MESSAGE = "(c) golden"

#: The PR 1 golden sha of the marked bibliography (books=60, seed=1234,
#: gamma=2, key/message above) — the same constant
#: ``tests/test_golden_vectors.py`` locks locally, here re-locked
#: *through the HTTP boundary*.
GOLDEN_MARKED_SHA = (
    "e4be42bf4221ef09cf9fcfd618cb373c773758bea13c6b4206fce51d229e3833")
GOLDEN_RECORD_SHA = (
    "f560a2be927e49a15d9bf452b13fe5e3f5031a72147a446c4d96c48bf0ce303d")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _request_body(**fields) -> bytes:
    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode()


@pytest.fixture(scope="module")
def golden_text():
    return serialize(bibliography.generate_document(
        bibliography.BibliographyConfig(books=60, editors=6, seed=1234)))


@pytest.fixture(scope="module")
def system():
    system = WmXMLSystem(KEY)
    system.register("books", bibliography.default_scheme(2))
    return system


@pytest.fixture(scope="module")
def local(system, golden_text):
    """The local reference: one fused serial embed of the golden doc."""
    return system.pipeline("books").embed_many(
        [golden_text], MESSAGE, output="xml")[0]


@pytest.fixture(scope="module")
def service(system):
    return WmXMLService(system, processes=2)


@pytest.fixture(scope="module")
def live(service):
    """A real loopback daemon (batch endpoints pool over 2 workers)."""
    with running_server(service) as server:
        yield f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture(scope="module")
def client(live):
    return WmXMLClient(live, scheme="books")


class TestDispatchProtocol:
    """The pure routing/error surface — no sockets involved."""

    def test_healthz(self, service, system):
        status, payload, headers = service.dispatch("GET", "/v1/healthz")
        assert status == 200
        assert payload["format"] == RESPONSE_FORMAT
        assert payload["ok"] is True
        assert payload["status"] == "ok"
        assert payload["schemes"] == ["books"]
        assert payload["key_fingerprint"] == system.key_fingerprint
        assert headers[PROTOCOL_HEADER] == RESPONSE_FORMAT

    def test_unknown_endpoint_is_not_found(self, service):
        status, payload, _ = service.dispatch("GET", "/v1/nope")
        assert status == 404
        assert payload["ok"] is False
        assert payload["error"]["code"] == "not-found"

    def test_wrong_method_is_405(self, service):
        for method, path in [("GET", "/v1/embed"), ("POST", "/v1/healthz"),
                             ("POST", "/v1/schemes")]:
            status, payload, _ = service.dispatch(method, path, b"{}")
            assert status == 405
            assert payload["error"]["code"] == "method-not-allowed"

    def test_malformed_json_body(self, service):
        status, payload, _ = service.dispatch("POST", "/v1/embed",
                                              b"{not json")
        assert status == 400
        assert payload["error"]["code"] == "malformed-request"

    def test_wrong_protocol_version_rejected(self, service):
        body = json.dumps({"format": "wmxml-request-v9",
                           "scheme": "books"}).encode()
        status, payload, _ = service.dispatch("POST", "/v1/embed", body)
        assert status == 400
        assert payload["error"]["code"] == "unsupported-protocol"

    def test_missing_field_named_in_error(self, service):
        status, payload, _ = service.dispatch(
            "POST", "/v1/embed", _request_body(scheme="books"))
        assert status == 400
        assert payload["error"]["code"] == "malformed-request"
        assert "message" in payload["error"]["message"]

    def test_unknown_scheme_is_404(self, service, golden_text):
        status, payload, _ = service.dispatch(
            "POST", "/v1/embed",
            _request_body(scheme="nope", document=golden_text,
                          message=MESSAGE))
        assert status == 404
        assert payload["error"]["code"] == "unknown-scheme"

    def test_bad_xml_document_maps_to_syntax_code(self, service):
        status, payload, _ = service.dispatch(
            "POST", "/v1/embed",
            _request_body(scheme="books", document="<broken",
                          message=MESSAGE))
        assert status == 400
        assert payload["error"]["code"] == "xml-syntax"

    def test_bad_record_maps_to_record_code(self, service, golden_text):
        status, payload, _ = service.dispatch(
            "POST", "/v1/detect",
            _request_body(scheme="books", document=golden_text,
                          record={"format": "nope"}))
        assert status == 400
        assert payload["error"]["code"] == "bad-record"

    @pytest.mark.parametrize("path", ["/v1/detect", "/v1/trace"])
    def test_bad_strategy_rejected(self, golden_text, local, path):
        # A registry, so that a trace gets as far as its strategy.
        system = WmXMLSystem(KEY, registry=WatermarkRegistry())
        system.register("books", bibliography.default_scheme(2))
        status, payload, _ = WmXMLService(system).dispatch(
            "POST", path,
            _request_body(scheme="books", document=golden_text,
                          record=local.record.to_dict(),
                          strategy="quantum"))
        assert status == 400
        assert payload["error"]["code"] == "malformed-request"
        assert "'quantum'" in payload["error"]["message"]

    def test_oversize_body_is_413(self, system):
        small = WmXMLService(system, max_body_bytes=64)
        status, payload, _ = small.dispatch("POST", "/v1/embed",
                                            b"x" * 65)
        assert status == 413
        assert payload["error"]["code"] == "oversize-body"

    def test_scheme_get_supports_etag_revalidation(self, service):
        status, payload, headers = service.dispatch("GET",
                                                    "/v1/schemes/books")
        assert status == 200
        etag = headers["ETag"]
        assert etag == f'"{payload["fingerprint"]}"'
        status, payload, headers = service.dispatch(
            "GET", "/v1/schemes/books", b"",
            {"If-None-Match": etag})
        assert status == 304
        assert payload is None
        assert headers["ETag"] == etag
        # RFC 7232 forms proxies actually send: weak validators,
        # lists, and '*' must all revalidate too.
        for header in (f"W/{etag}", f'"other", {etag}', "*"):
            status, _, _ = service.dispatch(
                "GET", "/v1/schemes/books", b"",
                {"If-None-Match": header})
            assert status == 304, header
        status, _, _ = service.dispatch(
            "GET", "/v1/schemes/books", b"",
            {"If-None-Match": '"stale"'})
        assert status == 200

    def test_put_scheme_registers(self, system):
        service = WmXMLService(system)
        body = json.dumps(bibliography.default_scheme(4).to_dict()).encode()
        status, payload, _ = service.dispatch("PUT", "/v1/schemes/dense",
                                              body)
        assert status == 200
        assert payload["registered"] == "dense"
        assert "dense" in system.scheme_names()
        assert (payload["fingerprint"]
                == system.list_schemes()["dense"])

    def test_put_scheme_beyond_ceiling_is_registry_full(self):
        # PUT pins each name for the daemon's life; a wire client must
        # not be able to grow the registry (and its pipelines) forever.
        # The ceiling bounds *wire* additions — boot-time schemes
        # (here: 'books') never count against it.
        system = WmXMLSystem(KEY)
        system.register("books", bibliography.default_scheme(2))
        service = WmXMLService(system, max_schemes=2)
        body = json.dumps(bibliography.default_scheme(4).to_dict()).encode()
        status, _, _ = service.dispatch("PUT", "/v1/schemes/second", body)
        assert status == 200
        status, _, _ = service.dispatch("PUT", "/v1/schemes/third", body)
        assert status == 200
        status, payload, _ = service.dispatch("PUT", "/v1/schemes/fourth",
                                              body)
        assert status == 507
        assert payload["error"]["code"] == "registry-full"
        # Replacing an existing name is always allowed.
        status, _, _ = service.dispatch("PUT", "/v1/schemes/books", body)
        assert status == 200

    def test_concurrent_puts_cannot_race_past_the_ceiling(self):
        # The check + insert is one critical section: N parallel PUTs
        # of distinct names must still land at exactly the ceiling
        # (1 boot scheme + max_schemes wire additions).
        system = WmXMLSystem(KEY)
        system.register("books", bibliography.default_scheme(2))
        service = WmXMLService(system, max_schemes=4)
        body = json.dumps(bibliography.default_scheme(4).to_dict()).encode()
        with ThreadPoolExecutor(max_workers=8) as pool:
            statuses = list(pool.map(
                lambda i: service.dispatch(
                    "PUT", f"/v1/schemes/racer-{i}", body)[0],
                range(8)))
        assert len(system.scheme_names()) == 5
        assert sorted(statuses) == [200] * 4 + [507] * 4

    def test_stats_count_requests_and_errors(self, system):
        service = WmXMLService(system)
        service.dispatch("GET", "/v1/healthz")
        service.dispatch("GET", "/v1/nope")
        status, payload, _ = service.dispatch("GET", "/v1/stats")
        assert status == 200
        assert payload["requests"] == 2
        assert payload["errors"] == 1
        assert payload["endpoints"]["GET /v1/healthz"]["calls"] == 1

    def test_scheme_paths_share_one_stats_bucket(self, system):
        service = WmXMLService(system)
        service.dispatch("GET", "/v1/schemes/books")
        service.dispatch("GET", "/v1/schemes/other")
        _, payload, _ = service.dispatch("GET", "/v1/stats")
        assert payload["endpoints"]["GET /v1/schemes/{name}"]["calls"] == 2

    def test_unrouted_paths_share_one_stats_bucket(self, system):
        # A scanner probing random URLs must not grow the stats dict
        # (and every /v1/stats payload) without bound.
        service = WmXMLService(system)
        for probe in ("/a1", "/a2", "/v1/embedx", "/"):
            service.dispatch("GET", probe)
        _, payload, _ = service.dispatch("GET", "/v1/stats")
        assert payload["endpoints"]["GET (unknown)"]["calls"] == 4
        assert not any("/a1" in name for name in payload["endpoints"])

    def test_half_valid_record_is_bad_record_not_server_fault(
            self, service, golden_text):
        # Right format tag, missing fields: malformed client input,
        # so 400 bad-record — not a 500 that pollutes error stats.
        status, payload, _ = service.dispatch(
            "POST", "/v1/detect",
            _request_body(scheme="books", document=golden_text,
                          record={"format": "wmxml-record-v1"}))
        assert status == 400
        assert payload["error"]["code"] == "bad-record"

    def test_non_wmxml_exception_becomes_internal_error_envelope(
            self, system, golden_text, monkeypatch):
        # A genuine daemon bug must still come back as an envelope,
        # never a crashed handler thread / dropped connection.
        service = WmXMLService(system)
        monkeypatch.setattr(service.system, "pipeline",
                            lambda *a, **k: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        status, payload, headers = service.dispatch(
            "POST", "/v1/embed",
            _request_body(scheme="books", document=golden_text,
                          message=MESSAGE))
        assert status == 500
        assert payload["ok"] is False
        assert payload["error"]["code"] == "internal-error"
        assert "RuntimeError" in payload["error"]["message"]
        assert headers[PROTOCOL_HEADER] == RESPONSE_FORMAT


def _detect_request(record_edit=None, query_edit=None, **fields):
    """A detect of the marked copy, its record edited on the way out."""
    def build(marked):
        record = dict(marked["record"], **(record_edit or {}))
        if query_edit:
            record["queries"] = [dict(query, **query_edit)
                                 for query in record["queries"]]
        return "POST", "/v1/detect", _request_body(
            scheme="books", document=marked["xml"], record=record,
            **fields)
    return build


def _embed_request(message="hi", scheme="books"):
    def build(marked):
        return "POST", "/v1/embed", _request_body(
            scheme=scheme, document=marked["xml"], message=message)
    return build


def _scheme_with(price_params=None, **level_edit) -> dict:
    """The book scheme with fields of its first shape level, or the
    price carrier's params, replaced."""
    scheme = bibliography.default_scheme(2).to_dict()
    scheme["shape"]["nesting"]["levels"][0].update(level_edit)
    if price_params is not None:
        [price] = [carrier for carrier in scheme["carriers"]
                   if carrier["field"] == "price"]
        price["params"] = price_params
    return scheme


def _put_scheme(**edit):
    def build(marked):
        return "PUT", "/v1/schemes/broken", json.dumps(
            _scheme_with(**edit)).encode()
    return build


def _nested_scheme_embed(marked):
    """An embed whose ``scheme`` nests 5,000 arrays deep, past the depth
    at which ``json.loads`` gives up."""
    body = _request_body(scheme=0, document=marked["xml"], message="hi")
    return "POST", "/v1/embed", body.replace(
        b'"scheme": 0', b'"scheme": ' + b"[" * 5000 + b"]" * 5000)


def _nested_scheme_put(marked):
    """A scheme upload whose body nests 5,000 arrays deep."""
    return "PUT", "/v1/schemes/broken", b"[" * 5000 + b"]" * 5000


def _repeated_message_embed(marked):
    """An embed that names ``message`` twice, of which ``json.loads``
    alone keeps the last."""
    body = _request_body(scheme="books", document=marked["xml"],
                         message="a")
    return "POST", "/v1/embed", body.replace(
        b'"message": "a"', b'"message": "a", "message": "b"')


#: Client-controlled input that once reached the 500 ``internal-error``
#: envelope (or, for a huge ``nbits``, ran the daemon out of memory, and
#: for a repeated member, was read as its last value):
#: (id, request builder, the 4xx slug it must answer).
BAD_CLIENT_INPUT = [
    *[(f"record-gamma-{value!r}", _detect_request({"gamma": value}),
       "bad-record") for value in ("x", None, [], {}, -1)],
    *[(f"record-nbits-{value!r}", _detect_request({"nbits": value}),
       "bad-record") for value in ("x", None, [], {}, -1, 1.5)],
    ("record-nbits-1e9", _detect_request({"nbits": 10 ** 9}),
     "bad-record"),
    *[(f"record-identity-{value!r}",
       _detect_request(query_edit={"identity": value}), "bad-record")
      for value in (1, None, [])],
    *[(f"record-algorithm-{value!r}",
       _detect_request(query_edit={"algorithm": value}), "bad-record")
      for value in (1, None, {})],
    *[(f"record-key_id-{value!r}", _detect_request({"key_id": value}),
       "bad-record") for value in ([], {}, True)],
    ("embed-empty-message", _embed_request(message=""), "bad-message"),
    ("embed-message-over-the-cap",
     _embed_request(message="x" * (MAX_WATERMARK_BITS // 8 + 1)),
     "bad-message"),
    ("detect-empty-expected", _detect_request(expected=""),
     "bad-message"),
    ("detect-expected-of-another-length", _detect_request(expected="x"),
     "bad-message"),
    ("put-scheme-tag-list", _put_scheme(tag=[]), "bad-scheme"),
    ("put-scheme-tag-object", _put_scheme(tag={}), "bad-scheme"),
    ("put-scheme-attribute-name",
     _put_scheme(attributes=[[[], "publisher"]]), "bad-scheme"),
    ("put-scheme-leaf-name", _put_scheme(leaves=[[{}, "title"]]),
     "bad-scheme"),
    ("put-scheme-fraction-digits-float",
     _put_scheme(price_params=[["fraction_digits", 1.5]]), "bad-scheme"),
    ("inline-scheme-tag", _embed_request(scheme=_scheme_with(tag=[])),
     "bad-scheme"),
    ("embed-scheme-nested-5000-deep", _nested_scheme_embed,
     "malformed-request"),
    ("put-scheme-nested-5000-deep", _nested_scheme_put,
     "malformed-request"),
    ("embed-repeated-member", _repeated_message_embed,
     "malformed-request"),
]


@pytest.fixture(scope="module", params=["single-key", "tenants"])
def any_mode(request, golden_text):
    """``(service, headers, marked)`` in each service mode, where
    ``marked`` is the embed payload of the golden document under "hi"."""
    scheme = bibliography.default_scheme(2)
    if request.param == "single-key":
        system = WmXMLSystem(KEY)
        system.register("books", scheme)
        service, headers = WmXMLService(system), {}
    else:
        directory = TenantDirectory(TenantsConfig.from_dict({
            "format": "wmxml-tenants-v1", "keys": {"1": KEY},
            "tenants": {"acme": {}}}))
        directory.register_all("books", scheme)
        service = WmXMLService(tenants=directory)
        headers = {"Authorization":
                   f"Bearer {directory.mint_token('acme')}"}
    status, payload, _ = service.dispatch(
        "POST", "/v1/embed",
        _request_body(scheme="books", document=golden_text, message="hi"),
        headers)
    assert status == 200
    return service, headers, payload


class TestClientInputIsNeverAServerFault:
    @pytest.mark.parametrize(
        "build,code", [row[1:] for row in BAD_CLIENT_INPUT],
        ids=[row[0] for row in BAD_CLIENT_INPUT])
    def test_bad_input_answers_its_4xx_slug(self, any_mode, build, code):
        service, headers, marked = any_mode
        method, path, body = build(marked)
        start = time.perf_counter()
        status, payload, _ = service.dispatch(method, path, body, headers)
        assert time.perf_counter() - start < 1.0
        assert payload["error"]["code"] == code != "internal-error"
        assert status == 400
        _, listing, _ = service.dispatch("GET", "/v1/schemes", b"",
                                         headers)
        assert "broken" not in listing["schemes"]

    def test_deeply_nested_document_embeds_and_detects(self, any_mode):
        service, headers, _ = any_mode
        chain = "<note>" + "<d>" * 1000 + "</d>" * 1000 + "</note>"
        text = serialize(bibliography.generate_document(
            bibliography.BibliographyConfig(books=12, seed=1234)))
        text = text.replace("</book>", chain + "</book>", 1)
        status, marked, _ = service.dispatch(
            "POST", "/v1/embed",
            _request_body(scheme="books", document=text, message="hi"),
            headers)
        assert status == 200, marked
        status, payload, _ = service.dispatch(
            "POST", "/v1/detect",
            _request_body(scheme="books", document=marked["xml"],
                          record=marked["record"], expected="hi"),
            headers)
        assert status == 200, payload
        assert payload["result"]["detected"] is True


class TestGoldenVectorsThroughHTTP:
    """Client and pipeline are interchangeable, bit for bit."""

    def test_embed_matches_local_pipeline_and_golden_sha(
            self, client, local, golden_text):
        remote = client.embed(golden_text, MESSAGE)
        assert remote.xml == local.xml
        assert remote.record.to_dict() == local.record.to_dict()
        assert remote.stats.to_dict() == local.stats.to_dict()
        assert _sha256(remote.xml) == GOLDEN_MARKED_SHA
        record_json = json.dumps(remote.record.to_dict(), sort_keys=True)
        assert _sha256(record_json) == GOLDEN_RECORD_SHA

    def test_detect_matches_local_pipeline(self, client, system, local):
        remote = client.detect(local.xml, local.record, expected=MESSAGE)
        local_outcome = system.pipeline("books").detect_many(
            [(local.xml, local.record)], expected=MESSAGE)[0]
        assert remote.to_dict() == local_outcome.to_dict()
        assert remote.detected

    @pytest.mark.parametrize("strategy", ["scan", "indexed", "auto"])
    def test_every_strategy_crosses_the_wire(self, client, system, local,
                                             strategy):
        remote = client.detect(local.xml, local.record, expected=MESSAGE,
                               strategy=strategy)
        local_outcome = system.pipeline("books").detect_many(
            [(local.xml, local.record)], expected=MESSAGE,
            strategy=strategy)[0]
        assert remote.to_dict() == local_outcome.to_dict()

    def test_batch_embed_through_the_process_pool(self, client, system):
        # The acceptance batch: served by the daemon's processes=2
        # pool, bit-identical to the local serial embed of the same
        # fleet.
        texts = [
            serialize(bibliography.generate_document(
                bibliography.BibliographyConfig(books=12, editors=3,
                                                seed=2000 + index)))
            for index in range(6)
        ]
        remote = client.embed_many(texts, MESSAGE)
        local = system.pipeline("books").embed_many(texts, MESSAGE,
                                                    output="xml")
        assert [item.xml for item in remote] == [item.xml
                                                 for item in local]
        assert ([item.record.to_dict() for item in remote]
                == [item.record.to_dict() for item in local])

    def test_batch_detect_with_shared_record(self, client, system, local):
        items = [(local.xml, local.record)] * 5
        remote = client.detect_many(items, expected=MESSAGE)
        local_outcomes = system.pipeline("books").detect_many(
            items, expected=MESSAGE)
        assert ([outcome.to_dict() for outcome in remote]
                == [outcome.to_dict() for outcome in local_outcomes])
        assert all(outcome.detected for outcome in remote)

    def test_inline_scheme_request(self, live, golden_text, local):
        # A caller may ship the wmxml-scheme-v1 object inline instead
        # of naming a registered deployment; same pipeline, same bytes.
        anonymous = WmXMLClient(
            live, scheme=bibliography.default_scheme(2).to_dict())
        remote = anonymous.embed(golden_text, MESSAGE)
        assert remote.xml == local.xml

    def test_reorganized_copy_detects_through_the_wire(self, client,
                                                       system, local):
        # The paper's Figure-2 case: reorganize the marked copy into
        # another shape, then detect remotely with shape= — verdict
        # must match the local pipeline's exactly.
        from repro.datasets.bibliography import editor_shape
        from repro.rewriting import reorganize

        target = editor_shape()
        reorganized = reorganize(local.to_document(),
                                 system.pipeline("books").shape,
                                 target).document
        remote = client.detect(reorganized, local.record,
                               expected=MESSAGE, shape=target)
        local_outcome = system.pipeline("books").detect(
            reorganized, local.record, expected=MESSAGE, shape=target)
        assert remote.detected
        assert remote.to_dict() == local_outcome.to_dict()

    def test_fingerprint_header_matches_registry(self, live, client,
                                                 golden_text):
        body = _request_body(scheme="books", document=golden_text,
                             message=MESSAGE)
        request = urllib.request.Request(
            f"{live}/v1/embed", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            fingerprint = response.headers[FINGERPRINT_HEADER]
        assert fingerprint == client.list_schemes()["books"]


class TestSchemeRegistryOverHTTP:
    def test_put_get_round_trip(self, client):
        scheme = bibliography.default_scheme(3)
        fingerprint = client.put_scheme("sparse", scheme)
        assert client.list_schemes()["sparse"] == fingerprint
        assert client.get_scheme("sparse").to_dict() == scheme.to_dict()

    def test_get_unknown_scheme_raises_with_code(self, client):
        with pytest.raises(RemoteServiceError) as excinfo:
            client.get_scheme("never-registered")
        assert excinfo.value.code == "unknown-scheme"
        assert excinfo.value.http_status == 404

    def test_remote_errors_are_wmxml_errors(self, client):
        with pytest.raises(WmXMLError):
            client.get_scheme("never-registered")

    def test_awkward_scheme_names_round_trip(self, client):
        # '#' would be a fragment and ' ' a malformed request line if
        # the client did not percent-encode (and the server unquote).
        scheme = bibliography.default_scheme(3)
        name = "v2#prod candidate"
        fingerprint = client.put_scheme(name, scheme)
        assert client.list_schemes()[name] == fingerprint
        assert client.get_scheme(name).to_dict() == scheme.to_dict()


class TestConcurrentRequests:
    def test_parallel_clients_get_identical_bytes(self, live, system,
                                                  golden_text, local):
        client = WmXMLClient(live, scheme="books")
        expected_detect = system.pipeline("books").detect_many(
            [(local.xml, local.record)], expected=MESSAGE)[0].to_dict()

        def embed_round(_):
            return client.embed(golden_text, MESSAGE).xml

        def detect_round(_):
            return client.detect(local.xml, local.record,
                                 expected=MESSAGE).to_dict()

        with ThreadPoolExecutor(max_workers=8) as pool:
            embeds = list(pool.map(embed_round, range(8)))
            detects = list(pool.map(detect_round, range(8)))
        assert all(xml == local.xml for xml in embeds)
        assert all(outcome == expected_detect for outcome in detects)


class TestErrorMappingOverHTTP:
    def test_unknown_scheme_maps_to_404(self, client, golden_text):
        with pytest.raises(RemoteServiceError) as excinfo:
            client.embed(golden_text, MESSAGE, scheme="nope")
        assert excinfo.value.code == "unknown-scheme"
        assert excinfo.value.http_status == 404

    def test_malformed_request_maps_to_400(self, live):
        request = urllib.request.Request(
            f"{live}/v1/embed", data=b"{broken", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "malformed-request"

    def test_invalid_content_length_maps_to_400(self, live):
        # '-1' would make rfile.read block until EOF (bypassing the
        # body ceiling); 'abc' would desync the keep-alive stream.
        import http.client

        host = live[len("http://"):]
        for bogus in ("-1", "abc"):
            conn = http.client.HTTPConnection(host, timeout=10)
            try:
                conn.putrequest("POST", "/v1/embed")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", bogus)
                conn.endheaders()
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400, bogus
            assert payload["error"]["code"] == "malformed-request"

    def test_healthz_and_stats_do_not_leak_envelope_keys(self, client):
        for payload in (client.healthz(), client.stats()):
            assert "format" not in payload
            assert "ok" not in payload

    def test_handler_refusals_show_up_in_stats(self, system):
        # Oversize/invalid-framing refusals never reach dispatch but
        # must still count: an operator polling /v1/stats has to see
        # that the daemon is refusing traffic.
        with running_server(WmXMLService(system, max_body_bytes=64)) \
                as server:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = WmXMLClient(url, scheme="books", retries=0)
            with pytest.raises(RemoteServiceError):
                client.embed("<db>" + "x" * 128 + "</db>", MESSAGE)
            # The snapshot is taken while the stats request itself is
            # still in flight, so it shows exactly the one refusal —
            # bucketed separately so real endpoint latency stays clean.
            stats = client.stats()
            assert stats["errors"] == 1
            assert stats["requests"] == 1
            assert "POST /v1/embed (refused)" in stats["endpoints"]
            assert "POST /v1/embed" not in stats["endpoints"]

    def test_chunked_transfer_encoding_is_refused_and_closed(self, live):
        # Chunk bytes would stay unread on the keep-alive stream and
        # desync the next request, so the daemon refuses and closes.
        import http.client

        host = live[len("http://"):]
        conn = http.client.HTTPConnection(host, timeout=10)
        try:
            conn.putrequest("POST", "/v1/embed")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "malformed-request"
        assert response.getheader("Connection") == "close"

    def test_raw_bit_watermark_gets_a_clear_client_side_error(self, client,
                                                              golden_text):
        # The -v1 protocol carries text messages only; a 3-bit
        # Watermark must fail with a clear wire-limitation error, not
        # a misleading detect-time WatermarkDecodeError.
        from repro.core.watermark import Watermark
        from repro.service.protocol import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.embed(golden_text, Watermark([1, 0, 1]))
        assert "text messages" in str(excinfo.value)

    def test_non_json_success_response_maps_to_wmxml_error(self):
        # A proxy splash page answering 200 text/html must not leak a
        # raw JSONDecodeError through the one-handler contract.
        from repro.service.protocol import ServiceError

        with pytest.raises(ServiceError):
            WmXMLClient._decode(b"<html>welcome to the hotel wifi</html>")
        with pytest.raises(ServiceError):
            WmXMLClient._decode(b'["a", "list"]')

    def test_shared_pool_creation_is_thread_safe(self):
        # Concurrent batch requests on a fresh daemon must not race
        # two executors into existence (the loser's workers leak).
        import repro.parallel as parallel

        parallel.shutdown_pools()
        try:
            with ThreadPoolExecutor(max_workers=8) as threads:
                pools = list(threads.map(
                    lambda _: parallel.shared_pool(2), range(8)))
            assert all(pool is pools[0] for pool in pools)
        finally:
            parallel.shutdown_pools()

    def test_truncated_error_body_still_maps_to_remote_error(self):
        # The daemon dies after the error status line but before the
        # body: read() raises, but the SDK caller must still get a
        # WmXMLError.
        import io

        from repro.service.client import _remote_error

        class DyingBody(io.RawIOBase):
            def readable(self):
                return True

            def read(self, *args):
                raise ConnectionResetError(104, "Connection reset")

        error = urllib.error.HTTPError(
            "http://127.0.0.1:1/v1/embed", 400, "Bad Request", {},
            DyingBody())
        mapped = _remote_error(error)
        assert isinstance(mapped, RemoteServiceError)
        assert mapped.http_status == 400

    def test_non_object_json_error_body_maps_to_remote_error(self):
        # An HTTP error whose body is valid JSON but not an object (a
        # proxy answering '["not found"]') must still come back as a
        # RemoteServiceError, not an AttributeError.
        import io

        from repro.service.client import _remote_error

        for body in (b'["not found"]', b'"nope"', b"<html>504</html>"):
            error = urllib.error.HTTPError(
                "http://127.0.0.1:1/v1/embed", 404, "Not Found", {},
                io.BytesIO(body))
            mapped = _remote_error(error)
            assert isinstance(mapped, RemoteServiceError)
            assert mapped.code == "remote-error"
            assert mapped.http_status == 404

    def test_handler_sets_a_socket_timeout(self):
        # A client that opens a connection and never sends its claimed
        # body must not pin a server thread forever.
        from repro.service.app import _Handler

        assert _Handler.timeout and 0 < _Handler.timeout <= 300

    def test_head_healthz_answers_like_get_minus_the_body(self, live):
        # Load balancers probe with HEAD; it must not be an HTML 501.
        request = urllib.request.Request(f"{live}/v1/healthz",
                                         method="HEAD")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert int(response.headers["Content-Length"]) > 0
            assert response.read() == b""

    def test_unbound_verbs_still_get_an_envelope(self, live):
        # DELETE/PATCH must route through dispatch and come back as a
        # method-not-allowed envelope, not http.server's HTML 501.
        for method in ("DELETE", "PATCH"):
            request = urllib.request.Request(
                f"{live}/v1/schemes/books", method=method)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 405
            payload = json.loads(excinfo.value.read())
            assert payload["error"]["code"] == "method-not-allowed"

    def test_oversize_body_maps_to_413(self, system):
        with running_server(WmXMLService(system, max_body_bytes=128)) \
                as server:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = WmXMLClient(url, scheme="books", retries=0)
            with pytest.raises(RemoteServiceError) as excinfo:
                client.embed("<db>" + "x" * 256 + "</db>", MESSAGE)
            assert excinfo.value.code == "oversize-body"
            assert excinfo.value.http_status == 413


class TestClientRetry:
    def test_connection_refused_exhausts_into_service_unavailable(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = WmXMLClient(f"http://127.0.0.1:{port}", retries=2,
                             retry_delay=0.01)
        start = time.perf_counter()
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.healthz()
        assert "attempt" in str(excinfo.value)
        assert time.perf_counter() - start < 5

    def test_read_timeout_maps_to_wmxml_error(self, monkeypatch):
        # A read timeout escapes urllib as a bare TimeoutError; the
        # client must keep the one-handler (WmXMLError) contract.
        import urllib.request as urlreq

        def slow(*args, **kwargs):
            raise TimeoutError("timed out")

        monkeypatch.setattr(urlreq, "urlopen", slow)
        client = WmXMLClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.healthz()
        assert "0.5" in str(excinfo.value)

    def test_broken_pipe_maps_to_connection_closed(self, monkeypatch):
        # A mid-request close (daemon died, or it refused an oversize
        # body 413-without-reading) must not masquerade as "no daemon
        # answered" — but its cause is ambiguous, so code/status stay
        # neutral rather than claiming an oversize refusal.
        import urllib.error
        import urllib.request as urlreq

        def broken(*args, **kwargs):
            raise urllib.error.URLError(BrokenPipeError(32, "Broken pipe"))

        monkeypatch.setattr(urlreq, "urlopen", broken)
        client = WmXMLClient("http://127.0.0.1:1", scheme="books")
        with pytest.raises(RemoteServiceError) as excinfo:
            client.embed("<db><x/></db>", MESSAGE)
        assert excinfo.value.code == "connection-closed"
        assert excinfo.value.http_status == 502

    def test_empty_batches_short_circuit_like_local_pipeline(self):
        # Pipeline.embed_many([])/detect_many([]) return []; the remote
        # twin must too — without even needing a reachable daemon.
        client = WmXMLClient("http://127.0.0.1:1", scheme="books",
                             retries=0)
        assert client.embed_many([], MESSAGE) == []
        assert client.detect_many([]) == []

    def test_remote_disconnected_is_retried_not_misdiagnosed(
            self, monkeypatch):
        # A daemon restarting behind a supervisor accepts then closes:
        # that is retryable, and must never surface as the misleading
        # connection-closed/413 oversize diagnosis.
        import http.client
        import urllib.error
        import urllib.request as urlreq

        from repro.service import client as client_module

        calls = []

        def disconnecting(*args, **kwargs):
            calls.append(1)
            raise urllib.error.URLError(
                http.client.RemoteDisconnected("closed"))

        monkeypatch.setattr(urlreq, "urlopen", disconnecting)
        monkeypatch.setattr(client_module.time, "sleep", lambda _: None)
        client = WmXMLClient("http://127.0.0.1:1", retries=2)
        with pytest.raises(ServiceUnavailableError):
            client.healthz()
        assert len(calls) == 3  # initial + 2 retries

    def test_mid_response_failure_maps_to_wmxml_error(self, monkeypatch):
        # response.read() errors escape urllib unwrapped; the client
        # must still honour the one-handler contract.
        import urllib.request as urlreq

        class TruncatedResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                raise ConnectionResetError(104, "Connection reset")

        monkeypatch.setattr(urlreq, "urlopen",
                            lambda *a, **k: TruncatedResponse())
        client = WmXMLClient("http://127.0.0.1:1")
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.healthz()
        assert "mid-response" in str(excinfo.value)

    def test_backoff_sleep_is_capped(self, monkeypatch):
        # retries=30 must mean "wait longer", not "sleep for hours":
        # the exponential ramp stops doubling at RETRY_DELAY_CAP.
        import socket

        from repro.service import client as client_module

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        client = WmXMLClient(f"http://127.0.0.1:{port}", retries=30,
                             retry_delay=0.1)
        with pytest.raises(ServiceUnavailableError):
            client.healthz()
        assert len(sleeps) == 30
        assert max(sleeps) == client_module.RETRY_DELAY_CAP

    def test_retry_survives_daemon_startup_lag(self, system, monkeypatch):
        # Deterministic startup lag: the first three connection
        # attempts are refused, then the real (already-bound) daemon
        # answers — no probe-close-rebind port race.
        import urllib.error
        import urllib.request as urlreq

        refusals = {"left": 3}
        real_urlopen = urlreq.urlopen

        def refusing_then_real(request, **kwargs):
            if refusals["left"]:
                refusals["left"] -= 1
                raise urllib.error.URLError(
                    ConnectionRefusedError(111, "Connection refused"))
            return real_urlopen(request, **kwargs)

        monkeypatch.setattr(urlreq, "urlopen", refusing_then_real)
        with running_server(WmXMLService(system)) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = WmXMLClient(url, retries=20, retry_delay=0.01)
            health = client.healthz()
            assert health["status"] == "ok"
            assert refusals["left"] == 0

    def test_remote_error_pickles(self):
        # Worker exceptions are pickled back from process pools; the
        # three-argument __init__ must survive the round-trip.
        import pickle

        error = RemoteServiceError("unknown-scheme", "nope", 404)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, RemoteServiceError)
        assert clone.code == "unknown-scheme"
        assert clone.http_status == 404
        assert str(clone) == "nope"


class TestServeCommandHelpers:
    def test_scheme_spec_parsing(self, tmp_path):
        from repro.cli import _scheme_spec

        assert _scheme_spec("books=/tmp/s.json") == ("books", "/tmp/s.json")
        assert _scheme_spec("/tmp/catalogue.json") == ("catalogue",
                                                       "/tmp/catalogue.json")
        # A bare path whose directories contain '=' is not a NAME=path.
        assert _scheme_spec("/data/run=3/books.json") == (
            "books", "/data/run=3/books.json")
        # An existing file always wins over NAME=path splitting.
        tricky = tmp_path / "a=b.json"
        tricky.write_text("{}")
        assert _scheme_spec(str(tricky)) == ("a=b", str(tricky))

    def test_build_service_registers_named_schemes(self, tmp_path):
        import argparse

        from repro.cli import build_service

        path = tmp_path / "scheme.json"
        bibliography.default_scheme(2).save(str(path))
        args = argparse.Namespace(
            key="serve-secret", alpha=1e-3, processes=3,
            max_body_bytes=1024, scheme_files=[f"books={path}", str(path)])
        service = build_service(args)
        assert service.system.scheme_names() == ["books", "scheme"]
        assert service.processes == 3
        assert service.max_body_bytes == 1024

    def test_build_service_rejects_duplicate_names(self, tmp_path):
        # Two specs resolving to one registry name must fail loudly:
        # replace semantics would silently serve only the last one.
        import argparse

        from repro.cli import build_service

        for sub in ("prod", "staging"):
            (tmp_path / sub).mkdir()
            bibliography.default_scheme(2).save(
                str(tmp_path / sub / "books.json"))
        args = argparse.Namespace(
            key="k", alpha=1e-3, processes=None, max_body_bytes=None,
            scheme_files=[str(tmp_path / "prod" / "books.json"),
                          str(tmp_path / "staging" / "books.json")])
        with pytest.raises(SystemExit) as excinfo:
            build_service(args)
        assert "duplicate scheme name 'books'" in str(excinfo.value)

    def test_build_service_rejects_bad_scheme_file(self, tmp_path):
        import argparse

        from repro.cli import build_service

        path = tmp_path / "bad.json"
        path.write_text("{}")
        args = argparse.Namespace(
            key="k", alpha=1e-3, processes=None, max_body_bytes=1024,
            scheme_files=[str(path)])
        with pytest.raises(SystemExit):
            build_service(args)
