"""The tenancy primitives: key hierarchy, tokens, quotas, config.

Four contracts below the service layer:

* **Key hierarchy** — ``KeyedPRF.derive`` is a deterministic,
  domain-separated expand step; :class:`MasterKeyMap` derives distinct
  subkeys per tenant / scheme / purpose / generation, rotation appends
  generations without invalidating old ones, and the ledger sealer is
  pinned to the oldest generation.
* **Tokens** — ``wmx1.<claims>.<sig>`` round-trips through
  mint/verify; every forgery, malformation, expiry, or unknown key id
  is the same :class:`UnauthorizedError`.
* **Quotas** — the token bucket refills continuously against an
  injected clock, never over burst, and a refused take spends nothing.
* **Config** — ``wmxml-tenants-v1`` validation refuses unknown
  fields/scopes with the stable ``bad-tenant-config`` slug, and the
  new tenancy slugs sit in the one error table.
"""

import json

import pytest

from repro.core.crypto import KeyedPRF
from repro.errors import HTTP_STATUS_BY_CODE, error_code
from repro.tenants import (
    KNOWN_SCOPES,
    MasterKeyMap,
    QuotaPolicy,
    TenantConfig,
    TenantConfigError,
    TenantDirectory,
    TenantQuota,
    TenantsConfig,
    TokenBucket,
    UnauthorizedError,
    mint_token,
    verify_token,
)
from repro.tenants.errors import (
    ForbiddenError,
    RateLimitedError,
    UnknownKeyError,
)


class TestDerive:
    """KeyedPRF.derive — the HKDF-style expand step everything keys off."""

    def test_deterministic(self):
        prf = KeyedPRF("master")
        assert prf.derive("tenant-key", "acme") == \
            KeyedPRF("master").derive("tenant-key", "acme")

    def test_purpose_and_parts_separate_domains(self):
        prf = KeyedPRF("master")
        keys = {
            prf.derive("tenant-key", "acme"),
            prf.derive("tenant-key", "globex"),
            prf.derive("token-sign"),
            prf.derive("ledger-seal"),
            # Purpose/part boundary confusion must not collide.
            prf.derive("tenant-key:acme"),
        }
        assert len(keys) == 5

    def test_distinct_from_plain_digest(self):
        prf = KeyedPRF("master")
        assert prf.derive("p", "x") != prf.digest("p", "x")

    def test_32_bytes(self):
        assert len(KeyedPRF("master").derive("p")) == 32


class TestMasterKeyMap:
    def test_validation(self):
        with pytest.raises(TenantConfigError):
            MasterKeyMap({})
        with pytest.raises(TenantConfigError):
            MasterKeyMap({0: "secret"})
        with pytest.raises(TenantConfigError):
            MasterKeyMap({True: "secret"})
        with pytest.raises(TenantConfigError):
            MasterKeyMap({1: ""})
        with pytest.raises(TenantConfigError):
            MasterKeyMap({1: "secret"}, active=2)

    def test_active_defaults_to_newest(self):
        keys = MasterKeyMap({1: "a", 3: "c", 2: "b"})
        assert keys.active_id == 3
        assert keys.key_ids() == [1, 2, 3]

    def test_tenants_get_distinct_keys(self):
        keys = MasterKeyMap({1: "master"})
        assert keys.tenant_key("acme") != keys.tenant_key("globex")
        assert keys.scheme_key("acme", "books") != \
            keys.scheme_key("acme", "jobs")
        assert keys.token_key() not in (keys.tenant_key("acme"),
                                        keys.tenant_key("globex"))

    def test_generations_get_distinct_keys(self):
        keys = MasterKeyMap({1: "one", 2: "two"})
        assert keys.tenant_key("acme", key_id=1) != \
            keys.tenant_key("acme", key_id=2)
        # Default = active generation.
        assert keys.tenant_key("acme") == keys.tenant_key("acme",
                                                          key_id=2)

    def test_unknown_key_id_refused(self):
        keys = MasterKeyMap({1: "one"})
        with pytest.raises(UnknownKeyError):
            keys.tenant_key("acme", key_id=9)
        assert 9 not in keys and 1 in keys

    def test_rotation_appends_and_activates(self):
        keys = MasterKeyMap({1: "one"})
        old = keys.tenant_key("acme")
        assert keys.rotate("two") == 2
        assert keys.active_id == 2
        # The old generation still derives the identical subkey.
        assert keys.tenant_key("acme", key_id=1) == old

    def test_sealer_is_rotation_stable(self):
        keys = MasterKeyMap({1: "one"})
        before = keys.sealer().fingerprint()
        keys.rotate("two")
        assert keys.sealer().fingerprint() == before


class TestTokens:
    def test_mint_verify_round_trip(self):
        keys = MasterKeyMap({1: "master"})
        token = mint_token(keys, "acme", {"embed", "detect"})
        assert token.startswith("wmx1.")
        claims = verify_token(keys, token)
        assert claims.tenant == "acme"
        assert claims.scopes == frozenset({"embed", "detect"})
        assert claims.key_id == 1
        assert claims.expires_at is None

    def test_unknown_scope_refused_at_mint(self):
        keys = MasterKeyMap({1: "master"})
        with pytest.raises(TenantConfigError):
            mint_token(keys, "acme", {"embed", "sudo"})

    def test_expiry(self):
        keys = MasterKeyMap({1: "master"})
        token = mint_token(keys, "acme", {"embed"}, ttl_s=60,
                           now=1000.0)
        assert verify_token(keys, token, now=1059.0).expires_at == 1060
        with pytest.raises(UnauthorizedError):
            verify_token(keys, token, now=1060.0)
        for ttl in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(TenantConfigError):
                mint_token(keys, "acme", {"embed"}, ttl_s=ttl)

    def test_survives_rotation_via_key_id(self):
        keys = MasterKeyMap({1: "master"})
        token = mint_token(keys, "acme", {"embed"})
        keys.rotate("second")
        # The token names generation 1; verification re-derives that
        # generation's signing key.
        assert verify_token(keys, token).key_id == 1

    def test_wrong_key_does_not_verify(self):
        token = mint_token(MasterKeyMap({1: "master"}), "acme",
                           {"embed"})
        with pytest.raises(UnauthorizedError):
            verify_token(MasterKeyMap({1: "other"}), token)

    def test_unknown_key_id_is_unauthorized(self):
        keys = MasterKeyMap({1: "one", 2: "two"})
        token = mint_token(keys, "acme", {"embed"}, key_id=2)
        with pytest.raises(UnauthorizedError):
            verify_token(MasterKeyMap({1: "one"}), token)

    def test_tampered_claims_do_not_verify(self):
        import base64

        keys = MasterKeyMap({1: "master"})
        token = mint_token(keys, "acme", {"embed"})
        prefix, body, signature = token.split(".")
        raw = json.loads(base64.urlsafe_b64decode(
            body + "=" * (-len(body) % 4)))
        raw["tenant"] = "globex"
        forged = base64.urlsafe_b64encode(
            json.dumps(raw, sort_keys=True,
                       separators=(",", ":")).encode()
        ).rstrip(b"=").decode()
        with pytest.raises(UnauthorizedError):
            verify_token(keys, f"{prefix}.{forged}.{signature}")

    @pytest.mark.parametrize("bogus", [
        "", "wmx1", "wmx1.a", "wmx1.a.b.c", "jwt.a.b",
        "wmx1.!!!.###", "wmx1..", "wmx1.e30.e30",
    ])
    def test_malformed_tokens_are_unauthorized(self, bogus):
        keys = MasterKeyMap({1: "master"})
        with pytest.raises(UnauthorizedError):
            verify_token(keys, bogus)

    def test_unknown_scopes_in_token_are_dropped(self):
        # A future daemon may mint scopes this one does not know;
        # verification keeps the intersection rather than refusing.
        keys = MasterKeyMap({1: "master"})
        token = mint_token(keys, "acme", {"embed"})
        claims = verify_token(keys, token)
        assert claims.scopes <= KNOWN_SCOPES


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(60, burst=2, clock=lambda: now[0])
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        wait = bucket.take()
        assert wait == pytest.approx(1.0)  # 60/min = 1 token/s
        # A refused take spends nothing.
        assert bucket.remaining() == 0
        now[0] = 1.0
        assert bucket.take() == 0.0

    def test_never_refills_over_burst(self):
        now = [0.0]
        bucket = TokenBucket(600, burst=3, clock=lambda: now[0])
        now[0] = 3600.0
        assert bucket.remaining() == 3

    def test_multi_token_take(self):
        now = [0.0]
        bucket = TokenBucket(60, burst=10, clock=lambda: now[0])
        assert bucket.take(10) == 0.0
        assert bucket.take(5) == pytest.approx(5.0)
        now[0] = 5.0
        assert bucket.take(5) == 0.0

    def test_default_burst_is_one_minute_allowance(self):
        assert TokenBucket(90.5).burst == 91
        assert TokenBucket(0.5).burst == 1

    def test_validation(self):
        with pytest.raises(TenantConfigError):
            TokenBucket(0)
        with pytest.raises(TenantConfigError):
            TokenBucket(60, burst=0)


class TestTenantQuota:
    def test_unlimited_by_default(self):
        quota = TenantQuota(QuotaPolicy())
        for _ in range(1000):
            quota.charge_request()
        quota.charge_documents(10**6)

    def test_rate_limited_carries_retry_after(self):
        now = [0.0]
        quota = TenantQuota(
            QuotaPolicy(requests_per_minute=60, request_burst=1),
            clock=lambda: now[0])
        quota.charge_request()
        with pytest.raises(RateLimitedError) as excinfo:
            quota.charge_request()
        assert excinfo.value.retry_after == pytest.approx(1.0)
        assert error_code(excinfo.value) == "rate-limited"

    def test_document_bucket_charges_per_document(self):
        now = [0.0]
        quota = TenantQuota(
            QuotaPolicy(documents_per_minute=60, document_burst=10),
            clock=lambda: now[0])
        quota.charge_documents(10)
        with pytest.raises(RateLimitedError):
            quota.charge_documents(1)
        # Requests stay unlimited: only the document bucket is set.
        quota.charge_request()

    def test_snapshot(self):
        quota = TenantQuota(
            QuotaPolicy(requests_per_minute=60, request_burst=5))
        snap = quota.snapshot()
        assert snap["documents"] is None
        assert snap["requests"] == {"rate_per_minute": 60.0,
                                    "burst": 5, "remaining": 5}

    def test_quota_policy_validation(self):
        with pytest.raises(TenantConfigError):
            QuotaPolicy.from_dict({"requests_per_second": 1})
        with pytest.raises(TenantConfigError):
            QuotaPolicy.from_dict({"requests_per_minute": "fast"})
        with pytest.raises(TenantConfigError):
            QuotaPolicy.from_dict({"requests_per_minute": True})
        for bad in ({"requests_per_minute": 0},
                    {"documents_per_minute": -3},
                    {"requests_per_minute": float("nan")},
                    {"documents_per_minute": float("inf")},
                    {"requests_per_minute": 10 ** 400},
                    {"request_burst": 0},
                    {"document_burst": 1.5},
                    {"request_burst": True}):
            with pytest.raises(TenantConfigError):
                QuotaPolicy.from_dict(bad)
        # The serve-issue benchmark's generous limits stay valid.
        QuotaPolicy.from_dict({"requests_per_minute": 10 ** 6,
                               "request_burst": 10 ** 6,
                               "documents_per_minute": 10 ** 6,
                               "document_burst": 10 ** 6})


VALID_CONFIG = {
    "format": "wmxml-tenants-v1",
    "keys": {"1": "secret-one", "2": "secret-two"},
    "active_key_id": 2,
    "tenants": {
        "acme": {},
        "globex": {"scopes": ["embed", "detect"],
                   "quota": {"requests_per_minute": 120}},
    },
}


class TestTenantsConfig:
    def test_round_trip(self):
        config = TenantsConfig.from_dict(VALID_CONFIG)
        assert config.keys.active_id == 2
        assert sorted(config.tenants) == ["acme", "globex"]
        assert config.tenant("acme").scopes == KNOWN_SCOPES
        assert config.tenant("globex").scopes == \
            frozenset({"embed", "detect"})
        assert config.tenant("globex").quota.requests_per_minute == 120
        # Per-tenant configs serialise (for introspection); the config
        # as a whole deliberately does not — the key map never hands
        # its master secrets back out.
        assert TenantConfig.from_dict(
            "globex", config.tenant("globex").to_dict()) == \
            config.tenant("globex")
        assert not hasattr(config, "to_dict")

    def test_load(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(VALID_CONFIG))
        assert TenantsConfig.load(str(path)).keys.active_id == 2

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw.pop("format"),
        lambda raw: raw.update(format="wmxml-tenants-v2"),
        lambda raw: raw.update(keys={}),
        lambda raw: raw.update(keys={"zero": "x"}),
        lambda raw: raw.update(tenants={}),
        lambda raw: raw.update(active_key_id=9),
        lambda raw: raw["tenants"].update(
            bad={"scopes": ["sudo"]}),
        lambda raw: raw["tenants"].update(
            bad={"surprise": True}),
        lambda raw: raw["tenants"].update(
            bad={"quota": {"surprise": 1}}),
        lambda raw: raw["tenants"].update(
            bad={"quota": {"requests_per_minute": 0}}),
        lambda raw: raw["tenants"].update(
            bad={"quota": {"documents_per_minute": -3}}),
        lambda raw: raw["tenants"].update(
            bad={"quota": {"request_burst": 0}}),
        lambda raw: raw["tenants"].update(
            bad={"quota": {"requests_per_minute": float("nan")}}),
        lambda raw: raw["tenants"].update(
            bad={"quota": {"documents_per_minute": float("inf")}}),
        lambda raw: raw["tenants"].update(
            bad={"quota": {"document_burst": 1.5}}),
    ])
    def test_invalid_configs_refused(self, mutate):
        raw = json.loads(json.dumps(VALID_CONFIG))
        mutate(raw)
        with pytest.raises(TenantConfigError) as excinfo:
            TenantsConfig.from_dict(raw)
        assert error_code(excinfo.value) == "bad-tenant-config"

    @pytest.mark.parametrize("text", ["01", " 1", "1 ", "+1", "1_0",
                                      "\u0661"])
    def test_key_ids_must_be_canonical(self, text):
        # int() reads each of these as key 1: beside "1", the second
        # secret used to replace the first without an error.
        raw = {**VALID_CONFIG, "keys": {"1": "first", text: "second"}}
        del raw["active_key_id"]
        with pytest.raises(TenantConfigError):
            TenantsConfig.from_dict(raw)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TenantConfigError):
            TenantsConfig.load(str(tmp_path / "absent.json"))

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TenantConfigError):
            TenantsConfig.load(str(path))


class TestDirectoryAuth:
    def test_mint_cannot_widen_a_grant(self):
        directory = TenantDirectory(TenantsConfig.from_dict(VALID_CONFIG))
        with pytest.raises(TenantConfigError):
            directory.mint_token("globex", scopes={"trace"})

    def test_config_revocation_disarms_outstanding_tokens(self):
        config = TenantsConfig.from_dict(VALID_CONFIG)
        token = TenantDirectory(config).mint_token("acme")
        narrowed = json.loads(json.dumps(VALID_CONFIG))
        narrowed["tenants"]["acme"] = {"scopes": ["detect"]}
        directory = TenantDirectory(TenantsConfig.from_dict(narrowed))
        claims = directory.authenticate(token)
        assert claims.scopes == frozenset({"detect"})

    def test_unknown_tenant_token_is_unauthorized(self):
        config = TenantsConfig.from_dict(VALID_CONFIG)
        token = mint_token(config.keys, "stranger", {"embed"})
        with pytest.raises(UnauthorizedError):
            TenantDirectory(config).authenticate(token)

    def test_tenant_systems_are_isolated_and_cached(self):
        directory = TenantDirectory(TenantsConfig.from_dict(VALID_CONFIG))
        acme = directory.system("acme")
        assert directory.system("acme") is acme
        assert acme.key_fingerprint != \
            directory.system("globex").key_fingerprint

    def test_record_from_other_tenant_is_forbidden(self):
        directory = TenantDirectory(TenantsConfig.from_dict(VALID_CONFIG))

        class Record:
            tenant = "globex"
            key_id = 2

        with pytest.raises(ForbiddenError):
            directory.system_for_record("acme", Record())


class TestErrorTable:
    """The new tenancy slugs live in the one error table."""

    @pytest.mark.parametrize("code,status", [
        ("unauthorized", 401),
        ("forbidden", 403),
        ("rate-limited", 429),
        ("bad-tenant-config", 400),
        ("unknown-key", 400),
        ("tenant-error", 500),
    ])
    def test_slug_and_status(self, code, status):
        assert HTTP_STATUS_BY_CODE[code] == status
