"""The ``wmxml-tenants-v1`` configuration artefact.

One JSON document declares a whole deployment's tenancy: the master-key
map (key id -> secret, plus the active generation) and every tenant
with its granted scopes and quota policy::

    {"format": "wmxml-tenants-v1",
     "keys": {"1": "first-master-secret", "2": "rotated-secret"},
     "active_key_id": 2,
     "tenants": {
       "acme":   {"scopes": ["embed", "detect", "records", "trace",
                             "schemes", "schemes-write"]},
       "globex": {"scopes": ["embed", "detect"],
                  "quota": {"requests_per_minute": 600,
                            "request_burst": 20,
                            "documents_per_minute": 1200}}}}

Key ids are JSON object keys, so they travel as decimal strings in
canonical form (``"1"``, never ``"01"`` or ``"+1"``) and parse back to
ints.  Rotation is an edit to this file: add the next id
under ``keys``, point ``active_key_id`` at it, restart the daemon —
records embedded under earlier ids keep verifying because they carry
their key id.  This file holds master secrets: treat it like a key
file (mode 0600), never commit it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.serialize import load_json_object

from .errors import TenantConfigError
from .keys import MasterKeyMap
from .quotas import QuotaPolicy
from .tokens import KNOWN_SCOPES, validate_scopes

#: Format tag of the tenants configuration artefact.
TENANTS_FORMAT = "wmxml-tenants-v1"


@dataclass(frozen=True)
class TenantConfig:
    """One tenant: granted scopes and quota policy."""

    name: str
    scopes: FrozenSet[str] = frozenset(KNOWN_SCOPES)
    quota: QuotaPolicy = field(default_factory=QuotaPolicy)

    @classmethod
    def from_dict(cls, name: str, raw: dict) -> "TenantConfig":
        if not isinstance(raw, dict):
            raise TenantConfigError(
                f"tenant {name!r} must be an object, "
                f"got {type(raw).__name__}")
        unknown = set(raw) - {"scopes", "quota"}
        if unknown:
            raise TenantConfigError(
                f"tenant {name!r} has unknown fields {sorted(unknown)}")
        scopes_raw = raw.get("scopes")
        if scopes_raw is None:
            scopes = frozenset(KNOWN_SCOPES)
        else:
            if not isinstance(scopes_raw, list) \
                    or not all(isinstance(s, str) for s in scopes_raw):
                raise TenantConfigError(
                    f"tenant {name!r}: scopes must be a list of strings")
            scopes = validate_scopes(scopes_raw)
        quota_raw = raw.get("quota")
        quota = QuotaPolicy() if quota_raw is None \
            else QuotaPolicy.from_dict(quota_raw)
        return cls(name=name, scopes=scopes, quota=quota)

    def to_dict(self) -> dict:
        return {"scopes": sorted(self.scopes),
                "quota": self.quota.to_dict()}


@dataclass(frozen=True)
class TenantsConfig:
    """A parsed ``wmxml-tenants-v1`` document."""

    keys: MasterKeyMap
    tenants: Dict[str, TenantConfig]

    @classmethod
    def from_dict(cls, raw: dict) -> "TenantsConfig":
        if not isinstance(raw, dict):
            raise TenantConfigError(
                f"tenants config must be an object, "
                f"got {type(raw).__name__}")
        if raw.get("format") != TENANTS_FORMAT:
            raise TenantConfigError(
                f"unsupported tenants format {raw.get('format')!r}; "
                f"expected {TENANTS_FORMAT!r}")
        unknown = set(raw) - {"format", "keys", "active_key_id", "tenants"}
        if unknown:
            raise TenantConfigError(
                f"unknown tenants-config fields {sorted(unknown)}")
        keys_raw = raw.get("keys")
        if not isinstance(keys_raw, dict) or not keys_raw:
            raise TenantConfigError(
                "'keys' must be a non-empty object of key id -> secret")
        parsed_keys: Dict[int, str] = {}
        for key_id_text, secret in keys_raw.items():
            # One spelling per id: int() alone would read "01", " 1"
            # and "+1" as key 1, and the last one read would silently
            # replace an earlier secret.
            try:
                key_id = int(key_id_text)
            except (TypeError, ValueError):
                key_id = None
            if key_id is None or str(key_id) != key_id_text:
                raise TenantConfigError(
                    f"key id {key_id_text!r} is not an integer in "
                    "canonical decimal form")
            if not isinstance(secret, str) or not secret:
                raise TenantConfigError(
                    f"master secret for key id {key_id} must be a "
                    f"non-empty string")
            parsed_keys[key_id] = secret
        active = raw.get("active_key_id")
        if active is not None and (not isinstance(active, int)
                                   or isinstance(active, bool)):
            raise TenantConfigError(
                f"active_key_id must be an integer, got {active!r}")
        keys = MasterKeyMap(parsed_keys, active=active)
        tenants_raw = raw.get("tenants")
        if not isinstance(tenants_raw, dict) or not tenants_raw:
            raise TenantConfigError(
                "'tenants' must be a non-empty object of name -> config")
        tenants: Dict[str, TenantConfig] = {}
        for name, tenant_raw in tenants_raw.items():
            if not isinstance(name, str) or not name:
                raise TenantConfigError(
                    f"tenant name must be a non-empty string, "
                    f"got {name!r}")
            tenants[name] = TenantConfig.from_dict(name, tenant_raw)
        return cls(keys=keys, tenants=tenants)

    @classmethod
    def load(cls, path: str) -> "TenantsConfig":
        """Parse a tenants file; malformed -> :class:`TenantConfigError`."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise TenantConfigError(
                f"cannot read tenants file {path!r}: {error}") from error
        return cls.from_dict(load_json_object(
            data, TenantConfigError, f"tenants file {path!r}"))

    def tenant(self, name: str) -> TenantConfig:
        try:
            return self.tenants[name]
        except KeyError:
            raise TenantConfigError(f"unknown tenant {name!r}") from None
