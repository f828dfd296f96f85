"""Watermark messages, vote tallies, and detection statistics.

A watermark is a bit string (usually the UTF-8 bits of an ownership
message).  Each selected carrier group embeds one bit; detection
collects one *vote* per surviving carrier instance and:

* reconstructs bits by per-index majority (blind detection), and
* when the owner supplies the expected watermark, tests the hypothesis
  "these votes are random" with a binomial tail — the standard
  Agrawal–Kiernan style significance argument.  A detection is claimed
  when the probability that random data produced this many matching
  votes falls below ``alpha``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from scipy import stats

from repro.errors import WatermarkDecodeError, WatermarkMessageError

#: The longest watermark in bits: a 1 KiB UTF-8 message.  Embedding
#: refuses a longer one and record parsing refuses a larger ``nbits``,
#: so the system never issues a record it would later refuse.
MAX_WATERMARK_BITS = 8 * 1024


def _check_length(nbits: int) -> None:
    if nbits > MAX_WATERMARK_BITS:
        raise WatermarkMessageError(
            f"a watermark of {nbits} bits exceeds the "
            f"{MAX_WATERMARK_BITS}-bit ceiling")


class Watermark:
    """An immutable bit string with optional text interpretation."""

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int]) -> None:
        if not bits:
            raise WatermarkMessageError(
                "watermark must contain at least one bit")
        _check_length(len(bits))
        if any(bit not in (0, 1) for bit in bits):
            raise WatermarkMessageError("watermark bits must be 0 or 1")
        self.bits: tuple[int, ...] = tuple(bits)

    @classmethod
    @functools.lru_cache(maxsize=256)
    def from_message(cls, message: str) -> "Watermark":
        """Encode a text message as its UTF-8 bits (MSB first).

        Memoised, since a watermark is immutable: a trace verifies each
        record against its recipient id, and hits hand back the same
        object.  A full memo of the longest messages (1 KiB of text,
        64 KiB of bits each) holds 16 MiB.
        """
        if not message:
            raise WatermarkMessageError("message must not be empty")
        data = message.encode("utf-8")
        _check_length(8 * len(data))
        bits: list[int] = []
        for byte in data:
            for position in range(7, -1, -1):
                bits.append((byte >> position) & 1)
        return cls(bits)

    def to_message(self, strict: bool = False) -> Optional[str]:
        """Decode back to text.

        By default undecodable bit strings yield ``None``; with
        ``strict=True`` they raise :class:`~repro.errors.
        WatermarkDecodeError` naming the reason — callers that treat a
        silent ``None`` as data loss (services persisting results)
        should use strict mode.
        """
        if len(self.bits) % 8 != 0:
            if strict:
                raise WatermarkDecodeError(
                    f"{len(self.bits)} bits is not a whole number of "
                    "bytes; the bit string has no text interpretation")
            return None
        data = bytearray()
        for start in range(0, len(self.bits), 8):
            byte = 0
            for bit in self.bits[start:start + 8]:
                byte = (byte << 1) | bit
            data.append(byte)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as error:
            if strict:
                raise WatermarkDecodeError(
                    f"recovered bytes are not valid UTF-8: {error}"
                ) from error
            return None

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Watermark) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def hamming_distance(self, other: "Watermark") -> int:
        """Number of differing bit positions (lengths must match)."""
        if len(other) != len(self):
            raise ValueError("watermark lengths differ")
        return sum(a != b for a, b in zip(self.bits, other.bits))

    def __repr__(self) -> str:
        preview = "".join(str(b) for b in self.bits[:32])
        suffix = "..." if len(self.bits) > 32 else ""
        return f"Watermark({preview}{suffix}, nbits={len(self.bits)})"


@dataclass
class VoteTally:
    """Per-bit-index vote counts collected during detection."""

    zeros: dict[int, int] = field(default_factory=dict)
    ones: dict[int, int] = field(default_factory=dict)

    def add(self, bit_index: int, bit: int) -> None:
        bucket = self.ones if bit else self.zeros
        bucket[bit_index] = bucket.get(bit_index, 0) + 1

    @property
    def total_votes(self) -> int:
        return sum(self.zeros.values()) + sum(self.ones.values())

    def indices(self) -> set[int]:
        return set(self.zeros) | set(self.ones)

    def majority(self, bit_index: int) -> Optional[int]:
        """Majority bit at an index; None when unseen or tied."""
        zeros = self.zeros.get(bit_index, 0)
        ones = self.ones.get(bit_index, 0)
        if zeros == ones:
            return None
        return 1 if ones > zeros else 0

    def reconstruct(self, nbits: int) -> list[Optional[int]]:
        """Blind per-index majority reconstruction.

        Walks the voted indices, not every bit position; an index
        outside ``[0, nbits)`` is ignored.
        """
        recovered: list[Optional[int]] = [None] * nbits
        for index in self.indices():
            if 0 <= index < nbits:
                recovered[index] = self.majority(index)
        return recovered

    def matching_votes(self, expected: Watermark) -> tuple[int, int]:
        """(votes agreeing with ``expected``, total votes).

        Walks the tally's entries; a vote at an index outside
        ``expected`` agrees with nothing.
        """
        bits = expected.bits
        nbits = len(bits)
        matching = sum(count for index, count in self.ones.items()
                       if 0 <= index < nbits and bits[index])
        matching += sum(count for index, count in self.zeros.items()
                        if 0 <= index < nbits and not bits[index])
        return matching, self.total_votes

    def recovered_fraction(self, nbits: int) -> float:
        """Fraction of bit positions with at least one vote."""
        if nbits == 0:
            return 0.0
        return len(self.indices()) / nbits


@functools.lru_cache(maxsize=4096)
def binomial_pvalue(matches: int, total: int) -> float:
    """P[Binomial(total, 1/2) >= matches] — the false-hit probability.

    This is the probability that unwatermarked (random) data yields at
    least this many agreeing votes.  Returns 1.0 for empty tallies so a
    document with no surviving carriers can never be claimed.  Memoised:
    a trace asks for one p-value per record, and scipy's tail costs far
    more than a cache hit, which hands back the same float.
    """
    if total <= 0:
        return 1.0
    if matches < 0 or matches > total:
        raise ValueError("matches must lie in [0, total]")
    return float(stats.binom.sf(matches - 1, total, 0.5))


def bit_error_rate(
    recovered: Sequence[Optional[int]], expected: Watermark
) -> float:
    """Fraction of expected bits not recovered correctly.

    Unrecovered positions (None) count as errors: the owner cannot
    present them as evidence.
    """
    if len(recovered) != len(expected):
        raise WatermarkMessageError(
            f"length mismatch: {len(recovered)} recovered bits, "
            f"{len(expected)} expected")
    errors = sum(
        1 for got, want in zip(recovered, expected.bits) if got != want)
    return errors / len(expected)
