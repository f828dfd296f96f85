"""HMAC-signed capability tokens — the ``wmxml-token-v1`` credential.

A token is three dot-separated fields::

    wmx1.<base64url(claims JSON)>.<base64url(HMAC-SHA256 signature)>

The claims document names the tenant, the granted scopes, an optional
expiry (epoch seconds), and the key id whose derived token key signed
it — so tokens survive master-key rotation exactly like watermark
records do: verification re-derives the signing key for the generation
the token itself names.  No padding, no external JWT machinery; the
signature covers the exact claim bytes that travel, and both segments
must be canonical unpadded base64url.

Everything that can go wrong verifying a token raises
:class:`UnauthorizedError` — a missing credential and a forged one look
identical to the caller, which is the point.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import math
import time
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Optional

from .errors import TenantConfigError, UnauthorizedError, UnknownKeyError
from .keys import MasterKeyMap

#: Format tag inside the claims document.
TOKEN_FORMAT = "wmxml-token-v1"

#: Wire prefix of every token string.
TOKEN_PREFIX = "wmx1"

#: Every scope the service understands.  ``stats`` and ``healthz`` need
#: no scope (any valid token / no token respectively).
KNOWN_SCOPES = frozenset({
    "embed", "detect", "trace", "records", "schemes", "schemes-write",
})


@dataclass(frozen=True)
class TokenClaims:
    """Verified contents of a bearer token."""

    tenant: str
    scopes: FrozenSet[str]
    key_id: int
    expires_at: Optional[int] = None

    def to_dict(self) -> dict:
        payload = {
            "tenant": self.tenant,
            "scopes": sorted(self.scopes),
            "key_id": self.key_id,
            "expires_at": self.expires_at,
        }
        return payload


def _b64encode(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def _b64decode(text: str) -> bytes:
    """Decode canonical unpadded base64url; anything else is malformed.

    ``urlsafe_b64decode`` silently drops characters outside its
    alphabet and ignores stray trailing bits, so only a segment that
    re-encodes to itself is accepted, and a token verifies only as the
    exact string that was minted.
    """
    raw = base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))
    if _b64encode(raw) != text:
        raise ValueError("token segment is not canonical base64url")
    return raw


def _signature(key: bytes, claims: bytes) -> bytes:
    return hmac.new(key, claims, hashlib.sha256).digest()


def validate_scopes(scopes: Iterable[str]) -> FrozenSet[str]:
    """The scopes as a frozenset, refusing names the service lacks."""
    result = frozenset(scopes)
    unknown = result - KNOWN_SCOPES
    if unknown:
        raise TenantConfigError(
            f"unknown scopes {sorted(unknown)}; "
            f"known: {sorted(KNOWN_SCOPES)}")
    return result


def mint_token(keys: MasterKeyMap, tenant: str, scopes: Iterable[str],
               *, ttl_s: Optional[float] = None,
               key_id: Optional[int] = None,
               now: Optional[float] = None) -> str:
    """A signed bearer token for ``tenant`` under one key generation.

    ``ttl_s`` of ``None`` mints a non-expiring token (operator's
    choice — fine for loopback lab use, set a TTL for anything shared).
    """
    if not tenant:
        raise TenantConfigError("token tenant must not be empty")
    granted = validate_scopes(scopes)
    if key_id is None:
        key_id = keys.active_id
    expires_at: Optional[int] = None
    if ttl_s is not None:
        if not 0 < ttl_s < math.inf:
            raise TenantConfigError(
                f"token ttl must be a positive, finite number of "
                f"seconds, got {ttl_s!r}")
        expires_at = int((time.time() if now is None else now) + ttl_s)
    claims = {
        "format": TOKEN_FORMAT,
        "tenant": tenant,
        "scopes": sorted(granted),
        "key_id": key_id,
        "expires_at": expires_at,
    }
    body = json.dumps(claims, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    signature = _signature(keys.token_key(key_id), body)
    return f"{TOKEN_PREFIX}.{_b64encode(body)}.{_b64encode(signature)}"


def bearer_token(headers: Mapping[str, str]) -> Optional[str]:
    """The token of an ``Authorization: Bearer <token>`` header.

    ``None`` when the header is absent (the verifier turns that into
    a 401 with its own message); a present-but-malformed header is
    refused here with a hint at the expected shape.
    """
    for key, value in headers.items():
        if key.lower() == "authorization":
            kind, _, token = value.strip().partition(" ")
            token = token.strip()
            if kind.lower() != "bearer" or not token:
                raise UnauthorizedError(
                    "Authorization header must be 'Bearer <token>'")
            return token
    return None


def verify_token(keys: MasterKeyMap, token: str,
                 *, now: Optional[float] = None) -> TokenClaims:
    """Verify a token string; any defect raises ``UnauthorizedError``."""
    if not isinstance(token, str) or not token:
        raise UnauthorizedError("missing bearer token")
    parts = token.split(".")
    if len(parts) != 3 or parts[0] != TOKEN_PREFIX:
        raise UnauthorizedError("malformed bearer token")
    try:
        body = _b64decode(parts[1])
        presented = _b64decode(parts[2])
        claims = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError):
        raise UnauthorizedError("malformed bearer token") from None
    if not isinstance(claims, dict) \
            or claims.get("format") != TOKEN_FORMAT:
        raise UnauthorizedError("malformed bearer token")
    key_id = claims.get("key_id")
    tenant = claims.get("tenant")
    scopes = claims.get("scopes")
    expires_at = claims.get("expires_at")
    if not isinstance(key_id, int) or not isinstance(tenant, str) \
            or not tenant or not isinstance(scopes, list) \
            or not all(isinstance(s, str) for s in scopes) \
            or not (expires_at is None or isinstance(expires_at, int)):
        raise UnauthorizedError("malformed bearer token")
    try:
        expected = _signature(keys.token_key(key_id), body)
    except UnknownKeyError:
        raise UnauthorizedError(
            f"token signed under unknown key id {key_id}") from None
    if not hmac.compare_digest(expected, presented):
        raise UnauthorizedError("bearer token signature does not verify")
    if expires_at is not None:
        current = time.time() if now is None else now
        if current >= expires_at:
            raise UnauthorizedError("bearer token has expired")
    return TokenClaims(tenant=tenant,
                       scopes=frozenset(scopes) & KNOWN_SCOPES,
                       key_id=key_id, expires_at=expires_at)
