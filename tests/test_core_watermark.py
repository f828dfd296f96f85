"""Unit tests for watermark messages, tallies, and statistics."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import (
    VoteTally,
    Watermark,
    binomial_pvalue,
    bit_error_rate,
)
from repro.core import watermark
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


TESTS = Path(__file__).parent


def oracle_row(total):
    """The exact tail for every ``matches`` in ``0..total``, correctly
    rounded: int/int true division rounds to the nearest double."""
    terms = [1]
    for i in range(total):
        terms.append(terms[-1] * (total - i) // (i + 1))
    tails = [0] * (total + 2)
    for i in range(total, -1, -1):
        tails[i] = tails[i + 1] + terms[i]
    scale = 1 << total
    return [tails[matches] / scale for matches in range(total + 1)]


def sampled_tallies(totals, per_total, seed):
    """Tallies near each total's mode, in both tails and at the ends."""
    rng = random.Random(seed)
    for total in totals:
        sigma = math.isqrt(total) // 2 + 1
        ks = {0, 1, total - 1, total, total // 2, total // 2 + 1}
        ks.update(min(total, max(0, total // 2
                                 + rng.randint(-12, 12) * sigma))
                  for _ in range(per_total))
        ks.update(rng.randint(0, total) for _ in range(per_total // 4))
        for matches in sorted(ks):
            yield matches, total


class TestExactTail:
    """``binomial_pvalue`` is the exact binomial tail, correctly rounded."""

    def test_memo_hands_back_the_exact_tail(self):
        """The uncached and the cached call both equal the int/int
        oracle for every tally of up to 400 votes."""
        binomial_pvalue.cache_clear()
        pairs = 0
        mismatches = []
        for total in range(401):
            row = oracle_row(total)
            for matches in range(total + 1):
                pairs += 1
                first = binomial_pvalue(matches, total)
                second = binomial_pvalue(matches, total)
                if not first == second == row[matches]:
                    mismatches.append(
                        (matches, total, first, second, row[matches]))
        assert pairs == 80_601
        assert mismatches == []
        info = binomial_pvalue.cache_info()
        assert (info.misses, info.hits) == (pairs, pairs)

    def test_sampled_tallies_up_to_30000_votes(self):
        mismatches = []
        for total in (401, 1_000, 2_999, 10_000, 30_000):
            row = oracle_row(total)
            for matches, _ in sampled_tallies([total], 60, seed=total):
                got = binomial_pvalue.__wrapped__(matches, total)
                if got != row[matches]:
                    mismatches.append((matches, total, got, row[matches]))
        assert mismatches == []

    @pytest.mark.parametrize("bits", [6, 20, 96])
    def test_bounds_hold_the_exact_values(self, bits):
        for n in range(1, 400, 13):
            for m in range(n // 2 + 1, n + 1, 3):
                lo, hi, e = watermark._binomial_bounds(n, n - m, bits)
                assert lo << e <= math.comb(n, m) <= hi << e, (n, m)
                lo, hi, e = watermark._tail_bounds(n, m, bits)
                tail = sum(math.comb(n, i) for i in range(m, n + 1))
                assert lo << e <= tail <= hi << e, (n, m)

    def test_bounds_that_round_apart_are_summed_again(self, monkeypatch):
        """At 6 bits most bounds round to two doubles: every retry at
        twice the precision must still land on the oracle."""
        precisions = set()
        original = watermark._tail_bounds

        def tail_bounds(n, m, bits):
            precisions.add(bits)
            return original(n, m, bits)

        monkeypatch.setattr(watermark, "_TAIL_BITS", 6)
        monkeypatch.setattr(watermark, "_tail_bounds", tail_bounds)
        for total in range(0, 301, 7):
            row = oracle_row(total)
            for matches in range(total + 1):
                assert binomial_pvalue.__wrapped__(matches, total) \
                    == row[matches], (matches, total)
        assert {6, 12, 24, 48} <= precisions

    def test_a_million_votes_near_the_mode(self):
        """Runs the real code path at a million votes: a quadratic sum
        would not finish here."""
        total, matches = 10 ** 6, 10 ** 6 // 2 + 400
        p = binomial_pvalue.__wrapped__(matches, total)
        assert 0.0 < p < 1.0
        assert binomial_pvalue.__wrapped__(matches + 1, total) < p
        # P[X >= k] + P[X >= n - k + 1] = P[X >= k] + P[X <= k - 1] = 1.
        rest = binomial_pvalue.__wrapped__(total - matches + 1, total)
        assert abs(Fraction(p) + Fraction(rest) - 1) <= math.ulp(1.0)

    def test_far_tails_underflow_and_saturate(self):
        # 2**-1075 lies halfway between 0 and the least subnormal, and
        # ties round to even.
        assert binomial_pvalue.__wrapped__(1075, 1075) == 0.0
        assert binomial_pvalue.__wrapped__(1074, 1074) == 5e-324
        assert binomial_pvalue.__wrapped__(1, 1075) == 1.0

    def test_close_to_scipy(self):
        """Documentation, not a lock: scipy's tail, which this function
        replaced, is within a few thousand ulps of the exact one."""
        stats = pytest.importorskip("scipy.stats")
        small = [(matches, total) for total in range(1, 401)
                 for matches in range(total + 1)]
        sampled = list(sampled_tallies((1_000, 2_500, 5_000), 40, seed=5))
        for pairs, bound in ((small, 1e-12), (sampled, 1e-11)):
            matches, totals = zip(*pairs)
            theirs = stats.binom.sf([k - 1 for k in matches], totals, 0.5)
            for k, total, their in zip(matches, totals, theirs):
                exact = binomial_pvalue(k, total)
                if exact > 1e-300:
                    assert abs(float(their) - exact) <= bound * exact, (
                        k, total)


def _verdicts(node):
    if isinstance(node, dict):
        if "p_value" in node:
            yield node
        for value in node.values():
            yield from _verdicts(value)
    elif isinstance(node, list):
        for value in node:
            yield from _verdicts(value)


def test_vectors_carry_the_exact_tail():
    """Every verdict the trace and service vectors lock proves its own
    p-value: the function's, and the oracle's."""
    documents = [json.loads(path.read_text(encoding="utf-8"))
                 for path in sorted(TESTS.glob("trace_vectors/*.json"))]
    for path in sorted(TESTS.glob("service_vectors/*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            documents.append(json.loads(json.loads(line)["body"]))
    triples = {(verdict["votes_matching"], verdict["votes_total"],
                verdict["p_value"])
               for document in documents for verdict in _verdicts(document)}
    assert len(triples) == 34
    for matches, total, p_value in triples:
        assert p_value == binomial_pvalue(matches, total) == oracle_row(
            total)[matches], (matches, total)
