"""The registry over the wire: endpoints, client SDK, restart survival.

Three contracts:

* **Protocol** — ``GET /v1/records`` (filter + paginate),
  ``GET /v1/ledger/verify`` and ``POST /v1/trace`` speak the standard
  ``wmxml-response-v1`` envelope; a daemon started *without* a
  registry answers every registry endpoint with the
  ``registry-not-configured`` envelope (501).
* **Client SDK** — ``WmXMLClient.issue / records / trace /
  verify_ledger`` round-trip the envelopes back into artefacts.
* **Restart survival** (the PR's acceptance scenario) — issue copies
  through a live daemon over a SQLite file, *kill the daemon*, start a
  fresh one over the same file: a collusion-attacked copy still traces
  to a true colluder and the ledger verifies; tampering one persisted
  row makes ``/v1/ledger/verify`` answer 409 ``chain-broken``.
"""

import json
import sqlite3

import pytest

from repro.api import CollusionAttack, WmXMLSystem
from repro.datasets import bibliography
from repro.registry import WatermarkRegistry
from repro.service import (
    FINGERPRINT_HEADER,
    REQUEST_FORMAT,
    RemoteServiceError,
    WmXMLClient,
    WmXMLService,
    running_server,
)
from repro.xmlmodel import parse, serialize

KEY = "golden-key-bib"
MESSAGE = "(c) golden"


def _request_body(**fields) -> bytes:
    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode()


def _fresh_system(registry=None):
    system = WmXMLSystem(KEY, registry=registry, issuer="svc-tests")
    system.register("books", bibliography.default_scheme(2))
    return system


@pytest.fixture(scope="module")
def golden_text():
    return serialize(bibliography.generate_document(
        bibliography.BibliographyConfig(books=60, editors=6, seed=1234)))


@pytest.fixture(scope="module")
def service(golden_text):
    """One registry-enabled daemon with a seeded corpus.

    Three issued copies (alice, bob, carol) of the golden document plus
    one plain embed — populated through ``dispatch`` itself, so the
    corpus every test queries was written by the wire path under test.
    """
    system = _fresh_system(registry=WatermarkRegistry())
    service = WmXMLService(system)
    for name in ("alice", "bob", "carol"):
        status, _, _ = service.dispatch(
            "POST", "/v1/embed",
            _request_body(scheme="books", document=golden_text,
                          recipient=name))
        assert status == 200
    status, _, _ = service.dispatch(
        "POST", "/v1/embed",
        _request_body(scheme="books", document=golden_text,
                      message=MESSAGE))
    assert status == 200
    return service


@pytest.fixture(scope="module")
def issued(service, golden_text):
    """The issued copies, re-derived locally (same keys, same bytes)."""
    system = _fresh_system()
    return {name: system.issue("books", parse(golden_text), name).document
            for name in ("alice", "bob", "carol")}


class TestRecordsEndpoint:
    def test_all_records(self, service):
        status, payload, _ = service.dispatch("GET", "/v1/records")
        assert status == 200
        assert payload["ok"] is True
        assert payload["total"] == 4
        assert [r["sequence"] for r in payload["records"]] == [0, 1, 2, 3]
        assert all(r["format"] == "wmxml-registry-record-v1"
                   for r in payload["records"])
        assert payload["records"][0]["recipient"] == "alice"
        assert payload["records"][3]["recipient"] == MESSAGE
        assert payload["records"][3]["keying"] == "system"

    def test_filter_by_recipient(self, service):
        status, payload, _ = service.dispatch(
            "GET", "/v1/records?recipient=bob")
        assert status == 200
        assert payload["total"] == 1
        [record] = payload["records"]
        assert record["recipient"] == "bob"
        assert record["keying"] == "recipient"
        assert record["issuer"] == "svc-tests"

    def test_filter_by_scheme_name_or_fingerprint(self, service):
        fingerprint = service.system.scheme_fingerprint("books")
        for value in ("books", fingerprint):
            status, payload, _ = service.dispatch(
                "GET", f"/v1/records?scheme={value}")
            assert status == 200
            assert payload["total"] == 4, value
        status, payload, _ = service.dispatch(
            "GET", "/v1/records?scheme=no-such-fingerprint")
        assert status == 200
        assert payload["total"] == 0

    def test_pagination(self, service):
        status, payload, _ = service.dispatch(
            "GET", "/v1/records?offset=1&limit=2")
        assert status == 200
        assert payload["total"] == 4
        assert payload["offset"] == 1 and payload["limit"] == 2
        assert [r["sequence"] for r in payload["records"]] == [1, 2]

    def test_bad_query_params(self, service):
        for query in ("offset=-1", "limit=banana",
                      "recipient=a&recipient=b"):
            status, payload, _ = service.dispatch(
                "GET", f"/v1/records?{query}")
            assert status == 400, query
            assert payload["error"]["code"] == "malformed-request"

    def test_wrong_method(self, service):
        status, payload, _ = service.dispatch("POST", "/v1/records")
        assert status == 405
        assert payload["error"]["code"] == "method-not-allowed"


class TestLedgerEndpoint:
    def test_verify_intact(self, service):
        status, payload, _ = service.dispatch("GET", "/v1/ledger/verify")
        assert status == 200
        ledger = payload["ledger"]
        assert ledger["intact"] is True
        assert ledger["sealed"] is True
        assert ledger["blocks"] == ledger["records"] == 4


class TestTraceEndpoint:
    def test_trace_accuses_the_recipient(self, service, issued):
        status, payload, headers = service.dispatch(
            "POST", "/v1/trace",
            _request_body(scheme="books",
                          document=serialize(issued["bob"])))
        assert status == 200
        trace = payload["trace"]
        assert trace["format"] == "wmxml-trace-v1"
        assert trace["prime_suspect"] == "bob"
        assert "alice" not in trace["accused"]
        assert headers[FINGERPRINT_HEADER] \
            == service.system.scheme_fingerprint("books")

    def test_trace_with_recipient_subset(self, service, issued):
        status, payload, _ = service.dispatch(
            "POST", "/v1/trace",
            _request_body(scheme="books",
                          document=serialize(issued["bob"]),
                          recipients=["alice", "bob"]))
        assert status == 200
        assert set(payload["trace"]["verdicts"]) == {"alice", "bob"}

    def test_trace_unknown_recipient(self, service, issued):
        status, payload, _ = service.dispatch(
            "POST", "/v1/trace",
            _request_body(scheme="books",
                          document=serialize(issued["bob"]),
                          recipients=["mallory"]))
        assert status == 404
        assert payload["error"]["code"] == "unknown-recipient"

    def test_trace_validates_request(self, service, golden_text):
        cases = [
            _request_body(scheme="books"),
            _request_body(scheme="books", document=golden_text,
                          recipients="bob"),
            _request_body(scheme="books", document=golden_text,
                          strategy="psychic"),
        ]
        for body in cases:
            status, payload, _ = service.dispatch(
                "POST", "/v1/trace", body)
            assert status == 400
            assert payload["error"]["code"] == "malformed-request"


class TestRegistryNotConfigured:
    """A daemon without --registry refuses every registry endpoint."""

    @pytest.fixture(scope="class")
    def bare(self):
        return WmXMLService(_fresh_system())

    @pytest.mark.parametrize("method,path,body", [
        ("GET", "/v1/records", b""),
        ("GET", "/v1/ledger/verify", b""),
        ("POST", "/v1/trace", _request_body()),
    ])
    def test_refused_with_the_slug(self, bare, method, path, body):
        status, payload, _ = bare.dispatch(method, path, body)
        assert status == 501
        assert payload["error"]["code"] == "registry-not-configured"
        assert "--registry" in payload["error"]["message"]

    def test_healthz_reports_no_registry(self, bare):
        status, payload, _ = bare.dispatch("GET", "/v1/healthz")
        assert status == 200
        assert payload["registry"] is None

    def test_embed_still_works(self, bare, golden_text):
        status, payload, _ = bare.dispatch(
            "POST", "/v1/embed",
            _request_body(scheme="books", document=golden_text,
                          message=MESSAGE))
        assert status == 200
        assert payload["ok"] is True


class TestClientSDK:
    """The client methods over a live loopback daemon."""

    @pytest.fixture(scope="class")
    def live(self):
        system = _fresh_system(registry=WatermarkRegistry())
        with running_server(WmXMLService(system)) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            yield WmXMLClient(url, scheme="books"), system

    def test_issue_records_and_traces(self, live, golden_text):
        client, system = live
        copy = client.issue(golden_text, "dana")
        local = _fresh_system().issue("books", parse(golden_text), "dana")
        assert copy.xml == serialize(local.document)

        page = client.records(recipient="dana")
        assert page["total"] == 1
        assert page["records"][0]["recipient"] == "dana"

        trace = client.trace(copy.xml)
        assert trace.prime_suspect == "dana"

        report = client.verify_ledger()
        assert report["intact"] is True

    def test_issue_many(self, live, golden_text):
        client, system = live
        copies = client.issue_many([golden_text, golden_text], "erin")
        assert len(copies) == 2
        assert copies[0].xml == copies[1].xml
        assert client.records(recipient="erin")["total"] == 2

    def test_healthz_registry_counters(self, live):
        client, system = live
        health = client.healthz()
        assert health["registry"]["records"] == system.registry.count()
        assert health["registry"]["blocks"] \
            == system.registry.backend.block_count()

    def test_remote_unknown_recipient(self, live, golden_text):
        client, _ = live
        with pytest.raises(RemoteServiceError) as excinfo:
            client.trace(golden_text, recipients=["mallory"])
        assert excinfo.value.code == "unknown-recipient"
        assert excinfo.value.http_status == 404


class TestRestartSurvival:
    """The acceptance scenario: SQLite registry outlives the daemon."""

    RECIPIENTS = ("alice", "bob", "carol", "dave")
    COLLUDERS = ("alice", "carol", "dave")

    def _serve(self, path):
        system = _fresh_system(
            registry=WatermarkRegistry.open(path))
        return WmXMLService(system)

    def test_trace_and_verify_after_restart(self, tmp_path):
        db = str(tmp_path / "survive.db")
        # A corpus large enough that three-way majority collusion
        # still leaves each colluder's fingerprint detectable.
        corpus = serialize(bibliography.generate_document(
            bibliography.BibliographyConfig(books=200, editors=8,
                                            seed=1234)))

        # First daemon lifetime: issue one copy per recipient.
        first = self._serve(db)
        copies = {}
        with running_server(first) as server:
            client = WmXMLClient(
                f"http://127.0.0.1:{server.server_address[1]}",
                scheme="books")
            for name in self.RECIPIENTS:
                copies[name] = client.issue(corpus, name).xml
        first.system.registry.close()
        # The daemon is dead; only the SQLite file remains.

        # Three colluders majority-vote their copies together.
        attacked = CollusionAttack(
            [parse(copies[name]) for name in self.COLLUDERS],
            strategy="majority", seed=11,
        ).apply(parse(copies[self.COLLUDERS[0]]))

        # Second daemon lifetime over the same file.
        second = self._serve(db)
        with running_server(second) as server:
            client = WmXMLClient(
                f"http://127.0.0.1:{server.server_address[1]}",
                scheme="books")
            assert client.records()["total"] == len(self.RECIPIENTS)
            trace = client.trace(serialize(attacked.document))
            assert trace.prime_suspect in self.COLLUDERS
            assert client.verify_ledger()["intact"] is True
        second.system.registry.close()

    def test_tampered_row_answers_chain_broken(self, tmp_path,
                                               golden_text):
        db = str(tmp_path / "tamper.db")
        first = self._serve(db)
        with running_server(first) as server:
            client = WmXMLClient(
                f"http://127.0.0.1:{server.server_address[1]}",
                scheme="books")
            client.issue(golden_text, "alice")
            client.issue(golden_text, "bob")
            assert client.verify_ledger()["intact"] is True
        first.system.registry.close()

        # Retroactively reassign alice's copy to mallory, straight in
        # the database, without touching the ledger.
        conn = sqlite3.connect(db)
        payload = json.loads(conn.execute(
            "SELECT payload FROM records WHERE sequence = 0"
        ).fetchone()[0])
        payload["recipient"] = "mallory"
        conn.execute(
            "UPDATE records SET payload = ?, recipient = ? "
            "WHERE sequence = 0",
            (json.dumps(payload), "mallory"))
        conn.commit()
        conn.close()

        second = self._serve(db)
        status, body, _ = second.dispatch("GET", "/v1/ledger/verify")
        assert status == 409
        assert body["error"]["code"] == "chain-broken"
        second.system.registry.close()

    def test_live_tamper_answers_chain_broken(self, tmp_path, golden_text):
        """No restart: a daemon that has already decoded every record
        must still see a row rewritten under it."""
        db = str(tmp_path / "live-tamper.db")
        live = self._serve(db)
        with running_server(live) as server:
            client = WmXMLClient(
                f"http://127.0.0.1:{server.server_address[1]}",
                scheme="books")
            alice = client.issue(golden_text, "alice")
            client.issue(golden_text, "bob")
            assert client.trace(alice.xml).prime_suspect == "alice"
            assert client.verify_ledger()["intact"] is True

            conn = sqlite3.connect(db)
            payload = json.loads(conn.execute(
                "SELECT payload FROM records WHERE sequence = 0"
            ).fetchone()[0])
            payload["recipient"] = "mallory"
            conn.execute(
                "UPDATE records SET payload = ?, recipient = ? "
                "WHERE sequence = 0",
                (json.dumps(payload), "mallory"))
            conn.commit()
            conn.close()

            with pytest.raises(RemoteServiceError) as excinfo:
                client.verify_ledger()
            assert excinfo.value.http_status == 409
            assert excinfo.value.code == "chain-broken"
        live.system.registry.close()
