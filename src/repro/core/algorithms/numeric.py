"""Numeric watermark plug-in: least-significant-digit parity.

The classical scheme the paper inherits from Agrawal–Kiernan: the bit is
stored in the parity of the value's least significant digit at a chosen
decimal position.  ``fraction_digits`` fixes that position —
``fraction_digits=2`` marks cents in a price, ``fraction_digits=0``
marks the unit digit of an integer (e.g. a year).

Embedding moves the digit by at most one step (±10^-fraction_digits),
with the direction chosen pseudo-randomly per identity so the
perturbations have no systematic drift an adversary could exploit.
Extraction is just the parity test, so it needs no knowledge of the
original value.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.algorithms.base import (
    AlgorithmError,
    WatermarkAlgorithm,
    register_algorithm,
)
from repro.core.crypto import KeyedPRF


@register_algorithm
class NumericAlgorithm(WatermarkAlgorithm):
    """Digit-parity embedding for decimal numeric values."""

    name = "numeric"

    def __init__(self, fraction_digits: int = 0) -> None:
        if (not isinstance(fraction_digits, int)
                or isinstance(fraction_digits, bool)
                or not 0 <= fraction_digits <= 9):
            raise AlgorithmError("fraction_digits must be an integer in "
                                 "[0, 9]")
        self.fraction_digits = fraction_digits
        self._scale = 10 ** fraction_digits

    def params(self) -> dict[str, Any]:
        return {"fraction_digits": self.fraction_digits}

    # -- helpers ------------------------------------------------------------

    def _parse(self, value: str) -> Optional[int]:
        """The value as an integer count of 10^-fraction_digits units."""
        try:
            number = float(value.strip())
        except (ValueError, AttributeError):
            return None
        scaled = round(number * self._scale)
        if abs(scaled) > 10 ** 15:
            return None  # beyond exact float integer range
        return scaled

    def _render(self, scaled: int) -> str:
        if self.fraction_digits == 0:
            return str(scaled)
        sign = "-" if scaled < 0 else ""
        magnitude = abs(scaled)
        whole, fraction = divmod(magnitude, self._scale)
        return f"{sign}{whole}.{fraction:0{self.fraction_digits}d}"

    # -- plug-in interface ------------------------------------------------------------

    def applicable(self, value: str) -> bool:
        return self._parse(value) is not None

    def embed(self, value: str, bit: int, prf: KeyedPRF, identity: str) -> str:
        scaled = self._parse(value)
        if scaled is None:
            return value
        if abs(scaled) % 2 == bit:
            return self._render(scaled)
        direction = 1 if prf.bit("numeric-dir", identity) else -1
        if scaled == 0:
            direction = 1  # keep zero's neighbourhood non-negative
        adjusted = scaled + direction
        if (adjusted < 0) != (scaled < 0) and scaled != 0:
            # Do not let the perturbation cross zero / flip the sign.
            adjusted = scaled - direction
        return self._render(adjusted)

    def extract(self, value: str, prf: KeyedPRF, identity: str) -> Optional[int]:
        scaled = self._parse(value)
        if scaled is None:
            return None
        return abs(scaled) % 2

    def distortion(self, original: str, marked: str) -> float:
        before, after = self._parse(original), self._parse(marked)
        if before is None or after is None:
            return 1.0
        if before == after:
            return 0.0
        return abs(after - before) / max(abs(before), 1)
