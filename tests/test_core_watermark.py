"""Unit tests for watermark messages, tallies, and statistics."""

import pytest

from repro.core import (
    VoteTally,
    Watermark,
    binomial_pvalue,
    bit_error_rate,
)
from repro.core.watermark import MAX_WATERMARK_BITS
from repro.errors import WatermarkMessageError


class TestWatermark:
    def test_message_roundtrip(self):
        wm = Watermark.from_message("© WmXML 2005")
        assert wm.to_message() == "© WmXML 2005"

    def test_ascii_bits(self):
        wm = Watermark.from_message("A")  # 0x41 = 01000001
        assert wm.bits == (0, 1, 0, 0, 0, 0, 0, 1)

    def test_from_bits(self):
        wm = Watermark([1, 0, 1])
        assert len(wm) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Watermark([])
        with pytest.raises(ValueError):
            Watermark.from_message("")

    def test_length_is_capped(self):
        assert len(Watermark([1] * MAX_WATERMARK_BITS)) == MAX_WATERMARK_BITS
        with pytest.raises(WatermarkMessageError):
            Watermark([1] * (MAX_WATERMARK_BITS + 1))
        with pytest.raises(WatermarkMessageError):
            Watermark.from_message("x" * (MAX_WATERMARK_BITS // 8 + 1))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Watermark([0, 2, 1])

    def test_to_message_non_byte_aligned(self):
        assert Watermark([1, 0, 1]).to_message() is None

    def test_to_message_invalid_utf8(self):
        wm = Watermark([1] * 8)  # 0xFF alone is invalid UTF-8
        assert wm.to_message() is None

    def test_equality_and_hash(self):
        assert Watermark([1, 0]) == Watermark([1, 0])
        assert Watermark([1, 0]) != Watermark([0, 1])
        assert hash(Watermark([1, 0])) == hash(Watermark([1, 0]))

    def test_hamming_distance(self):
        assert Watermark([1, 0, 1]).hamming_distance(Watermark([1, 1, 0])) == 2
        with pytest.raises(ValueError):
            Watermark([1]).hamming_distance(Watermark([1, 0]))

    def test_repr(self):
        assert "nbits=8" in repr(Watermark.from_message("A"))


class TestVoteTally:
    def test_majority(self):
        tally = VoteTally()
        tally.add(0, 1)
        tally.add(0, 1)
        tally.add(0, 0)
        assert tally.majority(0) == 1

    def test_tie_is_none(self):
        tally = VoteTally()
        tally.add(0, 1)
        tally.add(0, 0)
        assert tally.majority(0) is None

    def test_unseen_is_none(self):
        assert VoteTally().majority(3) is None

    def test_reconstruct(self):
        tally = VoteTally()
        tally.add(0, 1)
        tally.add(2, 0)
        assert tally.reconstruct(3) == [1, None, 0]

    def test_matching_votes(self):
        tally = VoteTally()
        tally.add(0, 1)
        tally.add(0, 1)
        tally.add(1, 0)
        tally.add(1, 1)  # disagrees with expected below
        expected = Watermark([1, 0])
        matching, total = tally.matching_votes(expected)
        assert (matching, total) == (3, 4)

    def test_total_votes(self):
        tally = VoteTally()
        for _ in range(5):
            tally.add(0, 1)
        assert tally.total_votes == 5

    def test_recovered_fraction(self):
        tally = VoteTally()
        tally.add(0, 1)
        tally.add(3, 0)
        assert tally.recovered_fraction(4) == 0.5
        assert tally.recovered_fraction(0) == 0.0


class TestStatistics:
    def test_empty_tally_never_detects(self):
        assert binomial_pvalue(0, 0) == 1.0

    def test_perfect_match_small(self):
        # 10 of 10 matching: p = 2^-10.
        assert binomial_pvalue(10, 10) == pytest.approx(2 ** -10)

    def test_half_match_is_insignificant(self):
        assert binomial_pvalue(50, 100) > 0.4

    def test_monotone_in_matches(self):
        assert binomial_pvalue(90, 100) < binomial_pvalue(60, 100)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            binomial_pvalue(11, 10)
        with pytest.raises(ValueError):
            binomial_pvalue(-1, 10)

    def test_bit_error_rate(self):
        expected = Watermark([1, 0, 1, 1])
        assert bit_error_rate([1, 0, 1, 1], expected) == 0.0
        assert bit_error_rate([1, 0, 0, 1], expected) == 0.25
        assert bit_error_rate([1, None, 1, 1], expected) == 0.25

    def test_bit_error_rate_length_mismatch(self):
        with pytest.raises(ValueError):
            bit_error_rate([1], Watermark([1, 0]))
