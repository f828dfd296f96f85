"""Keyed pseudo-random functions for watermark decisions.

Every decision WmXML makes — which carrier groups to mark, which
watermark bit a group carries, which direction to perturb, which byte
offsets of a binary payload to touch — is derived from
HMAC-SHA256(secret key, purpose ‖ inputs).  Purpose strings separate the
decision domains so no two uses of the PRF ever collide, and the secret
key never appears in any stored artefact (the paper's step 1: "A secret
key is used to select a number of data elements ... safeguard the set of
queries Q along with the secret key").

Hot-path design: ``hmac.new`` re-derives the inner/outer pad key
schedule on every call, which dominates short-message HMAC cost.  The
schedule depends only on the key, so it is computed once per
:class:`KeyedPRF` and reused through ``HMAC.copy()``.  On top of that a
bounded memo caches whole digests — embedding and detection re-ask the
same ``(purpose, identity)`` questions many times (selection, bit
assignment, keyed domain orderings) — and batch APIs amortise the Python
call overhead across many identities.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable, Sequence, Union

_SEPARATOR = b"\x1f"

#: Bound on the per-key digest memo; evicts oldest entries beyond this.
_MEMO_LIMIT = 8192


class KeyedPRF:
    """HMAC-SHA256 pseudo-random function with purpose separation."""

    __slots__ = ("_key", "_hmac", "_memo", "_order_memo")

    def __init__(self, secret_key: Union[str, bytes]) -> None:
        if isinstance(secret_key, str):
            secret_key = secret_key.encode("utf-8")
        if not secret_key:
            raise ValueError("secret key must not be empty")
        self._key = secret_key
        # The key schedule (inner/outer pads) is computed once here;
        # every digest then clones this state instead of re-keying.
        self._hmac = hmac.new(secret_key, digestmod=hashlib.sha256)
        self._memo: dict[tuple[str, ...], bytes] = {}
        self._order_memo: dict[tuple, list[str]] = {}

    def fingerprint(self) -> str:
        """Short public fingerprint of the key (safe to store)."""
        return self.digest("fingerprint").hex()[:16]

    # -- pickling ------------------------------------------------------------
    #
    # The HMAC key schedule is a C object pickle cannot serialise, and
    # the memo caches are pure derived state; only the key itself
    # travels.  A PRF unpickled in a process-pool worker therefore
    # arrives lean and rebuilds its pads and memos on first use —
    # the picklability contract that lets a compiled Pipeline shard
    # embed/detect work across workers.

    def __getstate__(self) -> bytes:
        return self._key

    def __setstate__(self, state: bytes) -> None:
        self.__init__(state)

    # -- primitives ------------------------------------------------------------

    def digest(self, purpose: str, *parts: str) -> bytes:
        """Raw 32-byte HMAC over purpose and parts (memoised)."""
        memo_key = (purpose,) + parts
        memo = self._memo
        cached = memo.get(memo_key)
        if cached is not None:
            return cached
        message = _SEPARATOR.join(
            [purpose.encode("utf-8")] + [p.encode("utf-8") for p in parts])
        mac = self._hmac.copy()
        mac.update(message)
        value = mac.digest()
        if len(memo) >= _MEMO_LIMIT:
            del memo[next(iter(memo))]
        memo[memo_key] = value
        return value

    def derive(self, purpose: str, *parts: str) -> bytes:
        """A 32-byte subkey for ``purpose`` (HKDF-style expand step).

        Domain-separated from every :meth:`digest` decision by a
        dedicated label, so a derived subkey can itself key a new
        :class:`KeyedPRF` (tenant keys, per-scheme keys, token-signing
        keys) without ever colliding with a watermark decision made
        under the parent key.
        """
        return self.digest("wmxml-hkdf-v1:" + purpose, *parts)

    def integer(self, purpose: str, *parts: str) -> int:
        """A uniform 64-bit integer derived from the inputs."""
        return int.from_bytes(self.digest(purpose, *parts)[:8], "big")

    def bit(self, purpose: str, *parts: str) -> int:
        """A single pseudo-random bit."""
        return self.digest(purpose, *parts)[0] & 1

    def stream(self, purpose: str, count: int, *parts: str) -> bytes:
        """``count`` pseudo-random bytes (counter-mode expansion)."""
        blocks: list[bytes] = []
        length = 0
        counter = 0
        while length < count:
            block = self.digest(purpose, *parts, str(counter))
            blocks.append(block)
            length += len(block)
            counter += 1
        return b"".join(blocks)[:count]

    # -- watermark decisions ------------------------------------------------------------

    def selects(self, identity: str, gamma: int) -> bool:
        """The 1-in-gamma selection test (Agrawal–Kiernan style).

        With ``gamma == 1`` every candidate is selected; the digest
        would be taken ``mod 1``, so it is not computed (nor memoised).
        """
        if gamma < 1:
            raise ValueError("gamma must be >= 1")
        if gamma == 1:
            return True
        return self.integer("wm-select", identity) % gamma == 0

    def selects_many(self, identities: Iterable[str],
                     gamma: int) -> list[bool]:
        """Batch form of :meth:`selects` over many identities."""
        if gamma < 1:
            raise ValueError("gamma must be >= 1")
        if gamma == 1:
            return [True for _ in identities]
        digest = self.digest
        return [
            int.from_bytes(digest("wm-select", identity)[:8], "big")
            % gamma == 0
            for identity in identities
        ]

    def bit_index(self, identity: str, nbits: int) -> int:
        """Which watermark bit the identified group carries."""
        if nbits < 1:
            raise ValueError("watermark must have at least one bit")
        return self.integer("wm-bitindex", identity) % nbits

    def bit_indices(self, identities: Iterable[str],
                    nbits: int) -> list[int]:
        """Batch form of :meth:`bit_index` over many identities."""
        if nbits < 1:
            raise ValueError("watermark must have at least one bit")
        digest = self.digest
        return [
            int.from_bytes(digest("wm-bitindex", identity)[:8], "big") % nbits
            for identity in identities
        ]

    def offsets(self, identity: str, count: int, modulus: int) -> list[int]:
        """``count`` distinct offsets in ``[0, modulus)`` for this identity.

        Used by the binary (image) plug-in to pick which payload bytes
        carry the mark.  When ``modulus <= count`` every offset is used.
        """
        if modulus <= 0:
            return []
        if modulus <= count:
            return list(range(modulus))
        chosen: list[int] = []
        seen: set[int] = set()
        counter = 0
        while len(chosen) < count:
            value = self.integer("wm-offset", identity, str(counter)) % modulus
            counter += 1
            if value not in seen:
                seen.add(value)
                chosen.append(value)
        return chosen

    def shuffle_key(self, purpose: str, item: str) -> int:
        """Sort key for keyed (secret) orderings of domains."""
        return self.integer(purpose, item)

    def keyed_order(self, purpose: str, items: Sequence[str]) -> list[str]:
        """The items sorted by their keyed shuffle keys.

        Orderings of closed domains are asked for once per embedded or
        extracted value, so the sorted result is memoised per
        ``(purpose, items)``.
        """
        memo_key = (purpose,) + tuple(items)
        cached = self._order_memo.get(memo_key)
        if cached is None:
            cached = sorted(items, key=lambda item: (
                self.shuffle_key(purpose, item), item))
            if len(self._order_memo) >= _MEMO_LIMIT:
                del self._order_memo[next(iter(self._order_memo))]
            self._order_memo[memo_key] = cached
        return list(cached)
