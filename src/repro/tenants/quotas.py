"""Token-bucket quotas: per-tenant request and document rate limits.

Two buckets per tenant, both optional: one charged once per
authenticated request, one charged per *document* an embed carries (a
100-document batch spends 100 document tokens but one request token).
Buckets refill continuously at ``rate/60`` tokens per second up to
``burst``; an empty bucket raises :class:`RateLimitedError` carrying
the exact wait until enough tokens refill, which the service turns
into a ``Retry-After`` header and the client SDK honours.

The clock is injectable (``time.monotonic`` by default) so tests drive
refill deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import RateLimitedError, TenantConfigError

Clock = Callable[[], float]


class TokenBucket:
    """Continuous-refill token bucket (thread-safe)."""

    def __init__(self, rate_per_minute: float, burst: Optional[int] = None,
                 *, clock: Clock = time.monotonic) -> None:
        if rate_per_minute <= 0:
            raise TenantConfigError(
                f"quota rate must be positive, got {rate_per_minute!r}")
        if burst is None:
            # Default burst: a full minute's allowance in one gulp.
            burst = max(1, math.ceil(rate_per_minute))
        if burst < 1:
            raise TenantConfigError(
                f"quota burst must be >= 1, got {burst!r}")
        self.rate_per_minute = float(rate_per_minute)
        self.burst = int(burst)
        self._rate_per_s = self.rate_per_minute / 60.0
        self._clock = clock
        self._tokens = float(self.burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(float(self.burst),
                               self._tokens + elapsed * self._rate_per_s)
        self._updated = now

    def take(self, count: int = 1) -> float:
        """Spend ``count`` tokens; returns 0.0, or the wait in seconds.

        A positive return means the request was *not* admitted and no
        tokens were spent — the caller should retry after that long.
        """
        if count < 1:
            return 0.0
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= count:
                self._tokens -= count
                return 0.0
            return (count - self._tokens) / self._rate_per_s

    def remaining(self) -> int:
        """Whole tokens currently available (refill applied)."""
        with self._lock:
            self._refill(self._clock())
            return int(self._tokens)


@dataclass(frozen=True)
class QuotaPolicy:
    """Declarative per-tenant limits; ``None`` means unlimited."""

    requests_per_minute: Optional[float] = None
    request_burst: Optional[int] = None
    documents_per_minute: Optional[float] = None
    document_burst: Optional[int] = None

    @classmethod
    def from_dict(cls, raw: dict) -> "QuotaPolicy":
        if not isinstance(raw, dict):
            raise TenantConfigError(
                f"quota must be an object, got {type(raw).__name__}")
        known = {"requests_per_minute", "request_burst",
                 "documents_per_minute", "document_burst"}
        unknown = set(raw) - known
        if unknown:
            raise TenantConfigError(
                f"unknown quota fields {sorted(unknown)}; "
                f"known: {sorted(known)}")
        for field in known:
            value = raw.get(field)
            kind = int if field.endswith("_burst") else (int, float)
            if value is not None and (
                    not isinstance(value, kind) or isinstance(value, bool)
                    or not _finite_positive(value)):
                raise TenantConfigError(
                    f"quota field {field!r} must be a finite "
                    f"{'integer' if kind is int else 'number'} > 0, "
                    f"got {value!r}")
        return cls(
            requests_per_minute=raw.get("requests_per_minute"),
            request_burst=raw.get("request_burst"),
            documents_per_minute=raw.get("documents_per_minute"),
            document_burst=raw.get("document_burst"),
        )

    def to_dict(self) -> dict:
        return {
            "requests_per_minute": self.requests_per_minute,
            "request_burst": self.request_burst,
            "documents_per_minute": self.documents_per_minute,
            "document_burst": self.document_burst,
        }


def _finite_positive(value) -> bool:
    """``0 < value < inf`` once the bucket turns it into a float."""
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


class TenantQuota:
    """The live buckets enforcing one tenant's :class:`QuotaPolicy`."""

    def __init__(self, policy: QuotaPolicy, *,
                 clock: Clock = time.monotonic) -> None:
        self.policy = policy
        self._requests: Optional[TokenBucket] = None
        self._documents: Optional[TokenBucket] = None
        if policy.requests_per_minute is not None:
            self._requests = TokenBucket(
                policy.requests_per_minute,
                policy.request_burst, clock=clock)
        if policy.documents_per_minute is not None:
            self._documents = TokenBucket(
                policy.documents_per_minute,
                policy.document_burst, clock=clock)

    def charge_request(self) -> None:
        """Spend one request token or raise :class:`RateLimitedError`."""
        if self._requests is None:
            return
        wait = self._requests.take(1)
        if wait > 0:
            raise RateLimitedError(
                f"request quota exhausted "
                f"({self._requests.rate_per_minute:g}/min, "
                f"burst {self._requests.burst}); retry after "
                f"{wait:.2f}s", retry_after=wait)

    def charge_documents(self, count: int) -> None:
        """Spend ``count`` document tokens or raise 429."""
        if self._documents is None or count < 1:
            return
        wait = self._documents.take(count)
        if wait > 0:
            raise RateLimitedError(
                f"document quota exhausted embedding {count} "
                f"document(s) "
                f"({self._documents.rate_per_minute:g}/min, "
                f"burst {self._documents.burst}); retry after "
                f"{wait:.2f}s", retry_after=wait)

    def snapshot(self) -> dict:
        """Quota state for ``/v1/stats`` (``None`` fields = unlimited)."""
        def bucket(b: Optional[TokenBucket]) -> Optional[dict]:
            if b is None:
                return None
            return {"rate_per_minute": b.rate_per_minute,
                    "burst": b.burst, "remaining": b.remaining()}
        return {"requests": bucket(self._requests),
                "documents": bucket(self._documents)}
