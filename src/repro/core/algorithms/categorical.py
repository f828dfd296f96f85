"""Categorical watermark plug-in: keyed domain pairing.

For closed-domain fields (department codes, job categories, media
formats...) the bit is carried by the value's *position parity* in a
secret ordering of the domain:

* the domain is sorted by HMAC(key, value) — an ordering only the key
  holder can reproduce;
* consecutive elements form swap pairs ``(d0,d1), (d2,d3), ...``;
* a value at even position carries 0, odd position carries 1; embedding
  the other bit swaps the value for its pair partner.

An adversary without the key sees only plausible domain values and
cannot tell marked from unmarked ones.  With an odd-sized domain, the
last element has no partner and is reported unusable (extract -> None).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.algorithms.base import (
    AlgorithmError,
    WatermarkAlgorithm,
    register_algorithm,
)
from repro.core.crypto import KeyedPRF


@register_algorithm
class CategoricalAlgorithm(WatermarkAlgorithm):
    """Pair-swap embedding over a closed value domain."""

    name = "categorical"

    def __init__(self, domain: Sequence[str] = ()) -> None:
        domain = tuple(domain)
        if len(domain) < 2:
            raise AlgorithmError("categorical domain needs >= 2 values")
        if not all(isinstance(value, str) for value in domain):
            raise AlgorithmError("categorical domain values must be "
                                 "strings")
        if len(set(domain)) != len(domain):
            raise AlgorithmError("categorical domain has duplicates")
        self.domain = domain
        self._members = set(domain)

    def params(self) -> dict[str, Any]:
        return {"domain": list(self.domain)}

    # -- keyed pairing ------------------------------------------------------------

    def _ordered(self, prf: KeyedPRF) -> list[str]:
        return prf.keyed_order("categorical-order", self.domain)

    def _position(self, value: str, prf: KeyedPRF) -> Optional[int]:
        if value not in self._members:
            return None
        return self._ordered(prf).index(value)

    # -- plug-in interface ------------------------------------------------------------

    def applicable(self, value: str) -> bool:
        return value in self._members

    def embed(self, value: str, bit: int, prf: KeyedPRF, identity: str) -> str:
        position = self._position(value, prf)
        if position is None:
            return value
        ordered = self._ordered(prf)
        if position == len(ordered) - 1 and len(ordered) % 2 == 1:
            return value  # unpaired last element cannot carry a bit
        if position % 2 == bit:
            return value
        partner = position + 1 if position % 2 == 0 else position - 1
        return ordered[partner]

    def extract(self, value: str, prf: KeyedPRF, identity: str) -> Optional[int]:
        position = self._position(value, prf)
        if position is None:
            return None
        ordered = self._ordered(prf)
        if position == len(ordered) - 1 and len(ordered) % 2 == 1:
            return None
        return position % 2

    def distortion(self, original: str, marked: str) -> float:
        return 0.0 if original == marked else 1.0
