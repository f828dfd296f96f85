"""`repro.tenants` — multi-tenant keys, bearer auth, and quotas.

The tenancy subsystem is the request path of every ``wmxml serve``
daemon, and what lets one daemon serve many tenants:

* :class:`MasterKeyMap` — key generations (rotation = a new key id)
  with HKDF-style per-tenant/per-scheme subkey derivation via
  :meth:`KeyedPRF.derive`;
* :mod:`tokens <repro.tenants.tokens>` — HMAC-signed capability
  tokens (``wmx1.<claims>.<sig>``) carrying tenant + scopes + expiry,
  minted by ``wmxml token mint``;
* :class:`QuotaPolicy` / :class:`TenantQuota` — token-bucket rate
  limits on requests and embedded documents (HTTP 429 +
  ``Retry-After``);
* :class:`TenantsConfig` — the ``wmxml-tenants-v1`` file a daemon
  boots from (``wmxml serve --tenants tenants.json``);
* :class:`TenantDirectory` — the runtime wiring it all to per-tenant
  ``WmXMLSystem`` instances, scheme namespaces, and a tenant-filtered
  registry.

A single-key ``--key`` daemon runs through this package too: its
service holds :meth:`TenantDirectory.single`, one open namespace whose
wire bytes are those of the classic single-key daemon.
"""

from repro.tenants.config import TENANTS_FORMAT, TenantConfig, TenantsConfig
from repro.tenants.directory import TenantDirectory
from repro.tenants.errors import (ForbiddenError, RateLimitedError,
                                  TenantConfigError, TenantError,
                                  UnauthorizedError, UnknownKeyError)
from repro.tenants.keys import MasterKeyMap
from repro.tenants.quotas import QuotaPolicy, TenantQuota, TokenBucket
from repro.tenants.tokens import (KNOWN_SCOPES, TOKEN_FORMAT, TokenClaims,
                                  mint_token, verify_token)

__all__ = [
    "TENANTS_FORMAT",
    "TOKEN_FORMAT",
    "KNOWN_SCOPES",
    "MasterKeyMap",
    "TenantConfig",
    "TenantsConfig",
    "TenantDirectory",
    "TokenClaims",
    "mint_token",
    "verify_token",
    "QuotaPolicy",
    "TenantQuota",
    "TokenBucket",
    "TenantError",
    "TenantConfigError",
    "UnauthorizedError",
    "ForbiddenError",
    "RateLimitedError",
    "UnknownKeyError",
]
