"""Multi-tenant service behaviour: auth, quotas, isolation, rotation.

The contracts ISSUE 10 promises:

* **Auth gate** — every endpoint except ``/v1/healthz`` demands a
  bearer token (401), scopes gate each route (403), and the quota
  buckets answer 429 with an honest ``Retry-After``.
* **Isolation** — two tenants on one daemon cannot see each other's
  schemes, records, traces, or stats, and cannot drive detections
  with each other's records.
* **Rotation** — records embedded under key generation 1 still
  verify and trace after the map rotates to generation 2 (the key id
  rides the record), including through an ``--export``/``--import``
  registry round-trip.
* **Compatibility** — the single-tenant daemon's wire behaviour is
  untouched: no tenant/key_id keys in payloads, paging validation
  still 400s, and the stats/healthz payloads only *gain* ``version``.
"""

import base64
import json
import random
import time

import pytest

from repro.datasets import bibliography
from repro.registry import WatermarkRegistry
from repro.registry.backend import MemoryBackend
from repro.service import (
    REQUEST_FORMAT,
    RemoteServiceError,
    WmXMLClient,
    WmXMLService,
    running_server,
)
from repro.tenants import TenantConfigError, TenantDirectory, TenantsConfig
from repro.xmlmodel import parse, serialize

CONFIG = {
    "format": "wmxml-tenants-v1",
    "keys": {"1": "tenancy-master-one"},
    "tenants": {
        "acme": {},
        "globex": {"scopes": ["embed", "detect", "records", "schemes"]},
        "metered": {"quota": {"requests_per_minute": 60,
                              "request_burst": 2}},
        "bulk": {"quota": {"documents_per_minute": 60,
                           "document_burst": 2}},
    },
}

ROTATED_CONFIG = {
    **CONFIG,
    "keys": {"1": "tenancy-master-one", "2": "tenancy-master-two"},
    "active_key_id": 2,
}


def _body(**fields) -> bytes:
    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode()


def _bearer(token: str) -> dict:
    return {"Authorization": f"Bearer {token}"}


@pytest.fixture(scope="module")
def golden_text():
    return serialize(bibliography.generate_document(
        bibliography.BibliographyConfig(books=25, editors=3, seed=11)))


@pytest.fixture()
def stack():
    """A fresh tenant-mode service with an injectable quota clock."""
    now = [0.0]
    directory = TenantDirectory(
        TenantsConfig.from_dict(CONFIG),
        registry=WatermarkRegistry(MemoryBackend()),
        clock=lambda: now[0])
    directory.register_all("books", bibliography.default_scheme(2))
    return WmXMLService(tenants=directory), directory, now


class TestConstruction:
    def test_exactly_one_of_system_or_tenants(self, stack):
        _, directory, _ = stack
        with pytest.raises(ValueError):
            WmXMLService()
        from repro.api import WmXMLSystem
        with pytest.raises(ValueError):
            WmXMLService(WmXMLSystem("k"), tenants=directory)


class TestAuthGate:
    def test_healthz_is_open_and_reveals_no_tenant_data(self, stack):
        service, _, _ = stack
        status, payload, _ = service.dispatch("GET", "/v1/healthz")
        assert status == 200
        assert payload["version"]
        assert payload["tenants"] == 4
        assert "schemes" not in payload

    @pytest.mark.parametrize("method,path", [
        ("GET", "/v1/stats"),
        ("POST", "/v1/embed"),
        ("POST", "/v1/embed/batch"),
        ("POST", "/v1/detect"),
        ("POST", "/v1/detect/batch"),
        ("GET", "/v1/records"),
        ("GET", "/v1/ledger/verify"),
        ("POST", "/v1/trace"),
        ("GET", "/v1/schemes"),
        ("GET", "/v1/schemes/books"),
        ("PUT", "/v1/schemes/books"),
        ("GET", "/v1/nope"),
    ])
    def test_everything_else_401s_without_a_token(self, stack, method,
                                                  path):
        service, _, _ = stack
        status, payload, _ = service.dispatch(method, path, b"{}")
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"

    @pytest.mark.parametrize("header", [
        "Basic dXNlcjpwdw==", "Bearer", "Bearer ", "wmx1.x.y",
        # Claims nested 5,000 arrays deep, past json.loads' depth.
        pytest.param("Bearer wmx1." + base64.urlsafe_b64encode(
            b"[" * 5000 + b"]" * 5000).decode() + ".c2ln",
            id="nested-claims"),
    ])
    def test_malformed_authorization_header(self, stack, header):
        service, _, _ = stack
        status, payload, _ = service.dispatch(
            "GET", "/v1/stats", b"", {"Authorization": header})
        assert status == 401

    def test_forged_token_is_401(self, stack):
        service, _, _ = stack
        from repro.tenants import MasterKeyMap, mint_token
        forged = mint_token(MasterKeyMap({1: "not-the-master"}),
                            "acme", {"embed"})
        status, payload, _ = service.dispatch(
            "GET", "/v1/stats", b"", _bearer(forged))
        assert status == 401

    def test_missing_scope_is_403(self, stack, golden_text):
        service, directory, _ = stack
        token = directory.mint_token("globex")  # no trace scope
        status, payload, _ = service.dispatch(
            "POST", "/v1/trace",
            _body(scheme="books", document=golden_text),
            _bearer(token))
        assert status == 403
        assert payload["error"]["code"] == "forbidden"
        assert "trace" in payload["error"]["message"]

    def test_token_narrower_than_grant_is_honoured(self, stack):
        service, directory, _ = stack
        token = directory.mint_token("acme", scopes={"detect"})
        status, payload, _ = service.dispatch(
            "GET", "/v1/records", b"", _bearer(token))
        assert status == 403

    def test_unknown_path_with_valid_token_is_404(self, stack):
        service, directory, _ = stack
        token = directory.mint_token("acme")
        status, payload, _ = service.dispatch(
            "GET", "/v1/nope", b"", _bearer(token))
        assert status == 404

    def test_expired_token_is_401(self, stack):
        service, directory, _ = stack
        token = directory.mint_token("acme", ttl_s=0.0001)
        time.sleep(0.01)
        status, _, _ = service.dispatch("GET", "/v1/stats", b"",
                                        _bearer(token))
        assert status == 401


class TestTokenFuzz:
    """Seeded, time-boxed mutations of a minted token: each one that
    still differs from it once the header's surrounding whitespace is
    stripped answers 401 ``unauthorized``, never 200 and never 500."""

    SEED = 20260
    MUTATIONS = 4000
    SECONDS = 20.0
    B64URL = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
              "0123456789-_")
    JUNK = " \t\n\x00%=+/.!~*$"
    NON_ASCII = ("\u00e9", "\u00df", "\u00a0", "\u200b", "\u0661",
                 "\U0001f600", "\ufeff")

    def _mutate(self, rng, token):
        prefix, claims, signature = token.split(".")
        kind = rng.randrange(8)
        if kind == 0:  # the prefix
            return rng.choice(["wmx2", "WMX1", "wmx", "wmx11", "", "wm x1",
                               "wmx1=", "wmx1\u200b"]) \
                + token[len(prefix):]
        if kind == 1:  # the segment count
            segments = [prefix, claims, signature]
            if rng.random() < 0.5:
                del segments[rng.randrange(3)]
            else:
                segments.insert(rng.randrange(4),
                                rng.choice(["", claims, signature, "AA"]))
            return ".".join(segments)
        if kind == 2:  # padding
            segments = [claims, signature]
            index = rng.randrange(2)
            segments[index] += "=" * rng.randint(1, 3)
            return ".".join([prefix] + segments)
        if kind == 3:  # the signature's length
            cut = rng.randint(1, len(signature))
            longer = signature + "".join(
                rng.choice(self.B64URL) for _ in range(rng.randint(1, 6)))
            return ".".join([prefix, claims, rng.choice(
                [signature[:-cut], longer, signature + signature])])
        # one character inside a segment: a junk, base64, standard
        # base64 or non-ASCII character inserted, or one replaced
        position = rng.randrange(len(prefix) + 1, len(token))
        alphabet = rng.choice([self.JUNK, self.B64URL, "+/",
                               "".join(self.NON_ASCII)])
        character = rng.choice(alphabet)
        if kind in (4, 5):
            return token[:position] + character + token[position:]
        return token[:position] + character + token[position + 1:]

    def test_mutated_tokens_are_unauthorized(self, stack):
        service, directory, _ = stack
        token = directory.mint_token("acme")
        status, _, _ = service.dispatch("GET", "/v1/stats", b"",
                                        _bearer(token))
        assert status == 200
        rng = random.Random(self.SEED)
        deadline = time.monotonic() + self.SECONDS
        checked, accepted = 0, []
        for _ in range(self.MUTATIONS):
            if time.monotonic() > deadline:
                break
            mutated = self._mutate(rng, token)
            if mutated.strip() == token:
                continue  # header whitespace, not the token itself
            status, payload, _ = service.dispatch(
                "GET", "/v1/stats", b"", _bearer(mutated))
            checked += 1
            if status != 401 or payload["error"]["code"] != "unauthorized":
                accepted.append((mutated, status))
        assert accepted == []
        assert checked >= 500

    def test_claims_nested_too_deep_in_canonical_base64_are_401(self,
                                                                stack):
        service, _, _ = stack
        claims = base64.urlsafe_b64encode(b"[" * 5000 + b"]" * 5000) \
            .rstrip(b"=").decode()
        status, payload, _ = service.dispatch(
            "GET", "/v1/stats", b"",
            _bearer(f"wmx1.{claims}.c2ln"))
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"


def _repeats_a_member(data: bytes) -> bool:
    """Whether some object in the JSON ``data`` names a member twice."""
    repeated = []

    def members(pairs):
        repeated.append(len(dict(pairs)) < len(pairs))
        return dict(pairs)

    json.loads(data, object_pairs_hook=members)
    return any(repeated)


class TestTenantsFileFuzz:
    """Seeded mutations of a tenants file: every field but the quotas
    takes values of every JSON type, and whole files are damaged on
    disk.  Each outcome is a parsed config or a ``TenantConfigError``,
    a parsed config holds one key generation per entry of ``keys``,
    and a file that names a member twice is refused."""

    SEED = 20261
    CASES = 3000
    FILES = 400
    #: Values of every JSON type; some are valid in some field.
    VALUES = (None, True, False, 0, 1, 2, -1, 2 ** 70, 1.5, "", "1",
              "secret", "embed", "wmxml-tenants-v1", [], ["embed"],
              ["embed", "detect"], ["sudo"], ["embed", 1], [None], {},
              {"1": "s"}, {"scopes": []}, {"scopes": ["embed"]},
              {"quota": {}}, {"surprise": 1})
    #: Object keys are text in JSON: key ids that int() reads as an
    #: integer, or fails on.
    KEY_TEXTS = ("1", "2", "3", "01", " 1", "1 ", "+1", "-1", "0", "1_0",
                 "\u0661", "1.0", "", "one", "9" * 5000)
    NAMES = ("acme", "globex", "", " ", "\x00", "\u00e9", "1")
    #: Edits of the file's bytes that name a member twice, at each
    #: level: a key id, a tenant, a top-level field, a quota field and
    #: a tenant's field.
    REPEATS = (
        (b'"2": "tenancy-master-two"', b'"1": "tenancy-master-two"'),
        (b'"globex": {', b'"acme": {'),
        (b'"active_key_id": 2', b'"active_key_id": 2, "active_key_id": 1'),
        (b'"request_burst": 2', b'"request_burst": 2, "request_burst": 9'),
        (b'"scopes": [', b'"scopes": [], "scopes": ['),
    )

    def _value(self, rng):
        return json.loads(json.dumps(rng.choice(self.VALUES)))

    def _pick(self, rng, container):
        return rng.choice(list(container)) if isinstance(
            container, dict) and container else None

    def _mutate(self, rng, raw):
        field = rng.randrange(8)
        if field == 0:
            raw["format"] = self._value(rng)
        elif field == 1:
            raw["keys"] = self._value(rng)
        elif field == 2:  # a key id's text
            key_id = self._pick(rng, raw.get("keys"))
            if key_id is not None:
                raw["keys"][rng.choice(self.KEY_TEXTS)] = \
                    raw["keys"].pop(key_id)
        elif field == 3:  # a master secret
            key_id = self._pick(rng, raw.get("keys"))
            if key_id is not None:
                raw["keys"][key_id] = self._value(rng)
        elif field == 4:
            raw["active_key_id"] = self._value(rng)
        elif field == 5:  # a tenant's name
            name = self._pick(rng, raw.get("tenants"))
            if name is not None:
                raw["tenants"][rng.choice(self.NAMES)] = \
                    raw["tenants"].pop(name)
        elif field == 6:  # a tenant's object
            name = self._pick(rng, raw.get("tenants"))
            if name is not None:
                raw["tenants"][name] = self._value(rng)
        else:  # a tenant's scopes
            name = self._pick(rng, raw.get("tenants"))
            if name is not None and isinstance(raw["tenants"][name], dict):
                raw["tenants"][name]["scopes"] = self._value(rng)

    def _damage(self, rng, data):
        kind = rng.randrange(4)
        if kind == 0:  # truncation
            return data[:rng.randrange(len(data))]
        if kind == 1:  # byte flips
            flipped = bytearray(data)
            for _ in range(rng.randint(1, 4)):
                flipped[rng.randrange(len(flipped))] ^= \
                    1 << rng.randrange(8)
            return bytes(flipped)
        if kind == 2:  # deep nesting, around the file or as a tenant
            depth = rng.choice([8, 1000, 100_000])
            if rng.random() < 0.5:
                return b"[" * depth + data + b"]" * depth
            return data.replace(b'"acme": {}', b'"acme": '
                                + b"[" * depth + b"]" * depth, 1)
        position = rng.randrange(len(data) + 1)  # non-UTF-8 bytes
        return (data[:position]
                + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xfe"])
                + data[position:])

    def _check(self, parse, keys_of, outcomes, escaped,
               repeats=lambda: False):
        try:
            config = parse()
        except TenantConfigError:
            outcomes["refused"] += 1
            return
        except Exception as error:  # any other class is an escape
            escaped.append(repr(error)[:200])
            return
        outcomes["parsed"] += 1
        if repeats():
            escaped.append("a file naming a member twice parsed")
        if len(config.keys.key_ids()) != len(keys_of()):
            escaped.append(f"{len(keys_of())} key entries parsed to "
                           f"generations {config.keys.key_ids()}")

    def test_mutated_fields_parse_or_refuse(self):
        rng = random.Random(self.SEED)
        outcomes = {"parsed": 0, "refused": 0}
        escaped = []
        for _ in range(self.CASES):
            raw = json.loads(json.dumps(ROTATED_CONFIG))
            for _ in range(rng.randint(1, 3)):
                self._mutate(rng, raw)
            self._check(lambda: TenantsConfig.from_dict(raw),
                        lambda: raw["keys"], outcomes, escaped)
        assert escaped == []
        assert outcomes["parsed"] >= 100 and outcomes["refused"] >= 100

    def test_damaged_files_load_or_refuse(self, tmp_path):
        rng = random.Random(self.SEED)
        original = json.dumps(ROTATED_CONFIG).encode("utf-8")
        path = tmp_path / "tenants.json"
        outcomes = {"parsed": 0, "refused": 0}
        escaped = []
        damaged = [self._damage(rng, original) for _ in range(self.FILES)]
        for old, new in self.REPEATS:  # a member named twice
            assert old in original
            damaged.append(original.replace(old, new, 1))
        for data in damaged:
            path.write_bytes(data)
            self._check(lambda: TenantsConfig.load(str(path)),
                        lambda: json.loads(data)["keys"], outcomes,
                        escaped, lambda: _repeats_a_member(data))
        assert escaped == []
        assert outcomes["parsed"] and outcomes["refused"] >= 100


class TestQuotas:
    def test_request_bucket_429_with_retry_after(self, stack):
        service, directory, now = stack
        token = directory.mint_token("metered")
        for _ in range(2):  # burst
            status, _, _ = service.dispatch("GET", "/v1/stats", b"",
                                            _bearer(token))
            assert status == 200
        status, payload, headers = service.dispatch(
            "GET", "/v1/stats", b"", _bearer(token))
        assert status == 429
        assert payload["error"]["code"] == "rate-limited"
        assert headers["Retry-After"] == "1"  # ceil(1 token / 1 per s)
        now[0] += 1.0
        status, _, _ = service.dispatch("GET", "/v1/stats", b"",
                                        _bearer(token))
        assert status == 200

    def test_document_bucket_charges_per_document(self, stack,
                                                  golden_text):
        service, directory, _ = stack
        token = directory.mint_token("bulk")
        status, payload, _ = service.dispatch(
            "POST", "/v1/embed/batch",
            _body(scheme="books", documents=[golden_text] * 2,
                  message="hi"), _bearer(token))
        assert status == 200
        status, payload, headers = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text, message="hi"),
            _bearer(token))
        assert status == 429
        assert int(headers["Retry-After"]) >= 1

    def test_429_never_charges_or_embeds(self, stack, golden_text):
        service, directory, _ = stack
        token = directory.mint_token("bulk")
        # A 3-document batch cannot ever pass burst=2; it must not
        # drain the bucket either.
        status, _, _ = service.dispatch(
            "POST", "/v1/embed/batch",
            _body(scheme="books", documents=[golden_text] * 3,
                  message="hi"), _bearer(token))
        assert status == 429
        status, _, _ = service.dispatch(
            "POST", "/v1/embed/batch",
            _body(scheme="books", documents=[golden_text] * 2,
                  message="hi"), _bearer(token))
        assert status == 200


class TestIsolation:
    def _embed(self, service, token, text, recipient=None):
        fields = {"scheme": "books", "document": text}
        if recipient is None:
            fields["message"] = "(c) tenant"
        else:
            fields["recipient"] = recipient
        status, payload, _ = service.dispatch(
            "POST", "/v1/embed", _body(**fields), _bearer(token))
        assert status == 200
        return payload

    def test_records_never_cross_tenants(self, stack, golden_text):
        service, directory, _ = stack
        acme = directory.mint_token("acme")
        globex = directory.mint_token("globex")
        self._embed(service, acme, golden_text)
        _, mine, _ = service.dispatch("GET", "/v1/records", b"",
                                      _bearer(acme))
        assert mine["total"] == 1
        assert mine["records"][0]["tenant"] == "acme"
        _, theirs, _ = service.dispatch("GET", "/v1/records", b"",
                                        _bearer(globex))
        assert theirs["total"] == 0 and theirs["records"] == []

    def test_detect_with_another_tenants_record_is_403(self, stack,
                                                       golden_text):
        service, directory, _ = stack
        acme = directory.mint_token("acme")
        globex = directory.mint_token("globex")
        payload = self._embed(service, acme, golden_text)
        status, refused, _ = service.dispatch(
            "POST", "/v1/detect",
            _body(scheme="books", document=payload["xml"],
                  record=payload["record"]), _bearer(globex))
        assert status == 403
        assert refused["error"]["code"] == "forbidden"
        # The owner verifies fine.
        status, verdict, _ = service.dispatch(
            "POST", "/v1/detect",
            _body(scheme="books", document=payload["xml"],
                  record=payload["record"]), _bearer(acme))
        assert status == 200 and verdict["result"]["detected"]

    def test_tenant_marks_never_cross_verify(self, stack, golden_text):
        # Same scheme, same document, same daemon — but each tenant
        # embeds under its own derived key, so one tenant's mark is
        # invisible to the other even with a copy of the record.
        service, directory, _ = stack
        acme = directory.mint_token("acme")
        payload = self._embed(service, acme, golden_text)
        record = payload["record"]
        record.pop("tenant"), record.pop("key_id")
        status, verdict, _ = service.dispatch(
            "POST", "/v1/detect",
            _body(scheme="books", document=payload["xml"],
                  record=record),
            _bearer(directory.mint_token("globex")))
        assert status == 200
        assert not verdict["result"]["detected"]

    def test_trace_stays_in_the_callers_namespace(self, stack,
                                                  golden_text):
        service, directory, _ = stack
        acme = directory.mint_token("acme")
        globex = directory.mint_token("globex")
        leaked = self._embed(service, globex, golden_text,
                             recipient="mole")["xml"]
        status, payload, _ = service.dispatch(
            "POST", "/v1/trace",
            _body(scheme="books", document=leaked), _bearer(acme))
        assert status == 200
        # globex's issued copy is invisible to acme's sweep.
        assert payload["trace"]["verdicts"] == {}
        assert payload["trace"]["accused"] == []
        # globex (were it granted trace) would accuse the mole — prove
        # via the directory, which is what the endpoint calls.
        trace = directory.trace(
            "globex", "books", parse(leaked, strip_whitespace=True))
        assert trace.prime_suspect == "mole"

    def test_scheme_namespaces_are_per_tenant(self, stack):
        service, directory, _ = stack
        acme = directory.mint_token("acme")
        globex = directory.mint_token("globex")
        artefact = bibliography.default_scheme(4).to_dict()
        status, _, _ = service.dispatch(
            "PUT", "/v1/schemes/private",
            json.dumps(artefact).encode(), _bearer(acme))
        assert status == 200
        _, mine, _ = service.dispatch("GET", "/v1/schemes", b"",
                                      _bearer(acme))
        assert sorted(mine["schemes"]) == ["books", "private"]
        _, theirs, _ = service.dispatch("GET", "/v1/schemes", b"",
                                        _bearer(globex))
        assert sorted(theirs["schemes"]) == ["books"]
        status, _, _ = service.dispatch("GET", "/v1/schemes/private",
                                        b"", _bearer(globex))
        assert status == 404

    def test_stats_are_per_tenant(self, stack, golden_text):
        service, directory, _ = stack
        acme = directory.mint_token("acme")
        globex = directory.mint_token("globex")
        self._embed(service, acme, golden_text)
        _, mine, _ = service.dispatch("GET", "/v1/stats", b"",
                                      _bearer(acme))
        assert mine["tenant"]["name"] == "acme"
        assert mine["tenant"]["embedded_documents"] == 1
        assert mine["tenant"]["quota"] == {"requests": None,
                                           "documents": None}
        assert mine["version"] and mine["uptime_s"] >= 0
        _, theirs, _ = service.dispatch("GET", "/v1/stats", b"",
                                        _bearer(globex))
        assert theirs["tenant"]["name"] == "globex"
        assert theirs["tenant"]["embedded_documents"] == 0


class TestRotation:
    def _rotated_stack(self, registry):
        directory = TenantDirectory(
            TenantsConfig.from_dict(ROTATED_CONFIG), registry=registry)
        directory.register_all("books", bibliography.default_scheme(2))
        return WmXMLService(tenants=directory), directory

    def test_old_records_verify_and_trace_after_rotation(
            self, golden_text):
        backend = MemoryBackend()
        directory = TenantDirectory(
            TenantsConfig.from_dict(CONFIG),
            registry=WatermarkRegistry(backend))
        directory.register_all("books", bibliography.default_scheme(2))
        service = WmXMLService(tenants=directory)
        token = directory.mint_token("acme")
        _, old, _ = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text,
                  message="pre-rotation notice"), _bearer(token))
        assert old["key_id"] == 1
        _, old_copy, _ = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text,
                  recipient="before-rotation"), _bearer(token))

        # Rotate: same registry, new key map, generation 2 active.
        service, directory = self._rotated_stack(
            WatermarkRegistry(backend))
        token = directory.mint_token("acme")
        _, new_copy, _ = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text,
                  recipient="after-rotation"), _bearer(token))
        assert new_copy["key_id"] == 2
        assert new_copy["record"]["key_id"] == 2

        # The generation-1 record still verifies: the daemon resolves
        # the recorded key id back to the old subkey.
        status, verdict, _ = service.dispatch(
            "POST", "/v1/detect",
            _body(scheme="books", document=old["xml"],
                  record=old["record"]), _bearer(token))
        assert status == 200 and verdict["result"]["detected"]

        # records?scheme=books spans both generations' fingerprints.
        _, listing, _ = service.dispatch(
            "GET", "/v1/records?scheme=books", b"", _bearer(token))
        assert listing["total"] == 3
        assert [r["key_id"] for r in listing["records"]] == [1, 1, 2]

        # And the trace sweep accuses the right recipient per copy.
        for leaked, culprit in ((old_copy["xml"], "before-rotation"),
                                (new_copy["xml"], "after-rotation")):
            _, traced, _ = service.dispatch(
                "POST", "/v1/trace",
                _body(scheme="books", document=leaked), _bearer(token))
            assert traced["trace"]["prime_suspect"] == culprit

    def test_mixed_generation_detect_batch_is_refused(self,
                                                      golden_text):
        backend = MemoryBackend()
        directory = TenantDirectory(
            TenantsConfig.from_dict(CONFIG),
            registry=WatermarkRegistry(backend))
        directory.register_all("books", bibliography.default_scheme(2))
        token = directory.mint_token("acme")
        old = WmXMLService(tenants=directory).dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text, message="x"),
            _bearer(token))[1]
        service, directory = self._rotated_stack(
            WatermarkRegistry(backend))
        token = directory.mint_token("acme")
        new = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text, message="x"),
            _bearer(token))[1]
        status, payload, _ = service.dispatch(
            "POST", "/v1/detect/batch",
            _body(scheme="books", documents=[old["xml"], new["xml"]],
                  records=[old["record"], new["record"]]),
            _bearer(token))
        assert status == 400
        assert payload["error"]["code"] == "malformed-request"

    def test_rotation_survives_export_import_round_trip(
            self, tmp_path, golden_text):
        db_one = str(tmp_path / "one.db")
        directory = TenantDirectory(
            TenantsConfig.from_dict(CONFIG),
            registry=WatermarkRegistry.open(db_one))
        directory.register_all("books", bibliography.default_scheme(2))
        service = WmXMLService(tenants=directory)
        token = directory.mint_token("acme")
        old = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text,
                  message="gen-one notice"), _bearer(token))[1]
        leaked = service.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text,
                  recipient="gen-one-mole"), _bearer(token))[1]

        # wmxml records --export jsonl / --import: the migration path.
        export = tmp_path / "dump.jsonl"
        with open(export, "w", encoding="utf-8") as handle:
            directory.registry.export_jsonl(handle)
        db_two = str(tmp_path / "two.db")
        restored = WatermarkRegistry.open(db_two)
        with open(export, "r", encoding="utf-8") as handle:
            restored.import_jsonl(handle)

        # Serve the restored registry under the *rotated* key map.
        service, directory = self._rotated_stack(restored)
        token = directory.mint_token("acme")
        _, listing, _ = service.dispatch(
            "GET", "/v1/records?scheme=books", b"", _bearer(token))
        assert listing["total"] == 2
        assert all(r["tenant"] == "acme" and r["key_id"] == 1
                   for r in listing["records"])
        status, verdict, _ = service.dispatch(
            "POST", "/v1/detect",
            _body(scheme="books", document=old["xml"],
                  record=old["record"]), _bearer(token))
        assert status == 200 and verdict["result"]["detected"]
        _, traced, _ = service.dispatch(
            "POST", "/v1/trace",
            _body(scheme="books", document=leaked["xml"]),
            _bearer(token))
        assert traced["trace"]["prime_suspect"] == "gen-one-mole"


class TestPagingValidation:
    """ISSUE 10 satellite: bad offset/limit is a 400 envelope, not 500.

    Exercised against *both* construction modes so the tenant refactor
    of ``_records`` cannot regress the single-tenant path.
    """

    @pytest.fixture(params=["single", "tenant"])
    def records_service(self, request):
        if request.param == "single":
            from repro.api import WmXMLSystem
            system = WmXMLSystem(
                "paging-key", registry=WatermarkRegistry(MemoryBackend()))
            system.register("books", bibliography.default_scheme(2))
            return WmXMLService(system), {}
        directory = TenantDirectory(
            TenantsConfig.from_dict(CONFIG),
            registry=WatermarkRegistry(MemoryBackend()))
        directory.register_all("books", bibliography.default_scheme(2))
        return (WmXMLService(tenants=directory),
                _bearer(directory.mint_token("acme")))

    @pytest.mark.parametrize("query", [
        "offset=-1", "limit=-1", "offset=-1&limit=-1",
        "offset=abc", "limit=abc", "offset=1.5", "limit=2e3",
        "offset=1&offset=2",
    ])
    def test_bad_paging_is_400(self, records_service, query):
        service, headers = records_service
        status, payload, _ = service.dispatch(
            "GET", f"/v1/records?{query}", b"", headers)
        assert status == 400
        assert payload["error"]["code"] == "malformed-request"

    def test_valid_paging_still_works(self, records_service):
        service, headers = records_service
        status, payload, _ = service.dispatch(
            "GET", "/v1/records?offset=0&limit=5", b"", headers)
        assert status == 200
        assert payload["total"] == 0


class TestSingleTenantUnchanged:
    """The classic daemon must not grow tenancy keys on the wire."""

    @pytest.fixture()
    def single(self):
        from repro.api import WmXMLSystem
        system = WmXMLSystem(
            "solo-key", registry=WatermarkRegistry(MemoryBackend()))
        system.register("books", bibliography.default_scheme(2))
        return WmXMLService(system)

    def test_embed_payload_has_no_tenant_keys(self, single,
                                              golden_text):
        status, payload, _ = single.dispatch(
            "POST", "/v1/embed",
            _body(scheme="books", document=golden_text, message="hi"))
        assert status == 200
        assert "tenant" not in payload and "key_id" not in payload
        assert "tenant" not in payload["record"]
        assert "key_id" not in payload["record"]
        _, listing, _ = single.dispatch("GET", "/v1/records")
        assert "tenant" not in listing["records"][0]
        assert "key_id" not in listing["records"][0]

    def test_healthz_and_stats_gain_version(self, single):
        _, health, _ = single.dispatch("GET", "/v1/healthz")
        from repro import __version__
        assert health["version"] == __version__
        assert health["uptime_s"] >= 0
        _, stats, _ = single.dispatch("GET", "/v1/stats")
        assert stats["version"] == __version__
        assert stats["uptime_s"] >= 0
        assert "tenant" not in stats

    def test_no_auth_required(self, single):
        status, _, _ = single.dispatch("GET", "/v1/stats")
        assert status == 200


class TestLiveClient:
    """The SDK against a real multi-tenant loopback daemon."""

    @pytest.fixture(scope="class")
    def live(self, tmp_path_factory):
        config = json.loads(json.dumps(CONFIG))
        # A refillable-in-test-time quota: 30/min = one token per 2s.
        config["tenants"]["metered"]["quota"] = {
            "requests_per_minute": 30, "request_burst": 1}
        directory = TenantDirectory(
            TenantsConfig.from_dict(config),
            registry=WatermarkRegistry(MemoryBackend()))
        directory.register_all("books", bibliography.default_scheme(2))
        service = WmXMLService(tenants=directory)
        with running_server(service) as server:
            yield (f"http://127.0.0.1:{server.server_address[1]}",
                   directory, service)

    def test_token_client_round_trip(self, live, golden_text):
        base, directory, _ = live
        client = WmXMLClient(base, scheme="books",
                             token=directory.mint_token("acme"))
        result = client.embed(golden_text, "(c) acme")
        assert result.record.tenant == "acme"
        assert result.record.key_id == 1
        assert client.detect(result.xml, result.record).detected
        assert client.records()["total"] >= 1
        assert client.stats()["tenant"]["name"] == "acme"

    def test_tokenless_client_is_refused(self, live, golden_text):
        base, _, _ = live
        client = WmXMLClient(base, scheme="books")
        with pytest.raises(RemoteServiceError) as excinfo:
            client.embed(golden_text, "hi")
        assert excinfo.value.code == "unauthorized"
        assert excinfo.value.http_status == 401
        # healthz stays open even for the tokenless client.
        assert client.healthz()["status"] in ("ok", "degraded")

    def test_client_honours_retry_after_on_429(self, live):
        base, directory, service = live
        client = WmXMLClient(base, token=directory.mint_token("metered"))
        assert client.stats()["tenant"]["name"] == "metered"  # burst
        start = time.monotonic()
        stats = client.stats()  # 429 -> sleep Retry-After -> succeed
        elapsed = time.monotonic() - start
        assert stats["tenant"]["name"] == "metered"
        counters = stats["tenant"]
        # The retried request 429'd at least once and the client waited
        # the advertised whole-second Retry-After before succeeding.
        assert counters["errors"] >= 1
        assert elapsed >= 1.0
