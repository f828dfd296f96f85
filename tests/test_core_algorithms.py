"""Unit tests for the plug-in watermark algorithms."""

import base64

import pytest

from repro.core import KeyedPRF, create_algorithm, algorithm_names
from repro.core.algorithms import AlgorithmError
from repro.core.algorithms.base import WatermarkAlgorithm, register_algorithm

PRF = KeyedPRF("unit-test-key")
IDENTITY = "field\x1ftitle\x1eSome Book"


def roundtrip(algorithm, value, bit, identity=IDENTITY):
    marked = algorithm.embed(value, bit, PRF, identity)
    extracted = algorithm.extract(marked, PRF, identity)
    return marked, extracted


class TestRegistry:
    def test_builtins_registered(self):
        names = algorithm_names()
        for expected in ("numeric", "categorical", "text-case",
                         "binary-lsb", "date"):
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(AlgorithmError):
            create_algorithm("no-such-algo")

    def test_bad_params(self):
        with pytest.raises(AlgorithmError):
            create_algorithm("numeric", {"bogus": 1})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AlgorithmError):
            @register_algorithm
            class Duplicate(WatermarkAlgorithm):  # noqa: unused
                name = "numeric"

                def embed(self, value, bit, prf, identity):
                    return value

                def extract(self, value, prf, identity):
                    return None

                def applicable(self, value):
                    return False

    def test_unnamed_registration_rejected(self):
        with pytest.raises(AlgorithmError):
            @register_algorithm
            class NoName(WatermarkAlgorithm):  # noqa: unused
                def embed(self, value, bit, prf, identity):
                    return value

                def extract(self, value, prf, identity):
                    return None

                def applicable(self, value):
                    return False


class TestNumeric:
    def test_integer_roundtrip(self):
        algo = create_algorithm("numeric")
        for value in ("1998", "0", "7", "-42", "1000000"):
            for bit in (0, 1):
                marked, extracted = roundtrip(algo, value, bit)
                assert extracted == bit, (value, bit, marked)

    def test_decimal_roundtrip(self):
        algo = create_algorithm("numeric", {"fraction_digits": 2})
        for value in ("10.50", "99.99", "-3.25", "0.01"):
            for bit in (0, 1):
                marked, extracted = roundtrip(algo, value, bit)
                assert extracted == bit, (value, bit, marked)

    def test_perturbation_is_one_unit(self):
        algo = create_algorithm("numeric", {"fraction_digits": 2})
        marked = algo.embed("10.50", 1, PRF, IDENTITY)
        assert abs(float(marked) - 10.50) <= 0.0100001

    def test_idempotent(self):
        algo = create_algorithm("numeric")
        once = algo.embed("1998", 1, PRF, IDENTITY)
        twice = algo.embed(once, 1, PRF, IDENTITY)
        assert once == twice

    def test_matching_parity_unchanged(self):
        algo = create_algorithm("numeric")
        assert algo.embed("1998", 0, PRF, IDENTITY) == "1998"

    def test_applicable(self):
        algo = create_algorithm("numeric")
        assert algo.applicable("123")
        assert algo.applicable(" 4.5 ")
        assert not algo.applicable("abc")
        assert not algo.applicable("")

    def test_extract_non_numeric_none(self):
        algo = create_algorithm("numeric")
        assert algo.extract("junk", PRF, IDENTITY) is None

    def test_sign_never_flips(self):
        algo = create_algorithm("numeric")
        for identity in (f"id-{i}" for i in range(20)):
            marked = algo.embed("1", 0, PRF, identity)
            assert float(marked) >= 0

    def test_distortion_relative(self):
        algo = create_algorithm("numeric")
        assert algo.distortion("1998", "1999") == pytest.approx(1 / 1998)
        assert algo.distortion("1998", "1998") == 0.0

    def test_formatting_preserved(self):
        algo = create_algorithm("numeric", {"fraction_digits": 2})
        marked = algo.embed("10.00", 1, PRF, IDENTITY)
        whole, fraction = marked.split(".")
        assert len(fraction) == 2

    def test_invalid_params(self):
        for digits in (-1, 1.5, True):
            with pytest.raises(AlgorithmError):
                create_algorithm("numeric", {"fraction_digits": digits})


class TestCategorical:
    DOMAIN = ["mkp", "acm", "springer", "ieee", "elsevier", "usenix"]

    def test_roundtrip(self):
        algo = create_algorithm("categorical", {"domain": self.DOMAIN})
        for value in self.DOMAIN:
            for bit in (0, 1):
                marked, extracted = roundtrip(algo, value, bit)
                assert extracted == bit
                assert marked in self.DOMAIN

    def test_swap_is_involution(self):
        algo = create_algorithm("categorical", {"domain": self.DOMAIN})
        value = "mkp"
        flipped = algo.embed(value, 1 - algo.extract(value, PRF, IDENTITY),
                             PRF, IDENTITY)
        back = algo.embed(flipped, algo.extract(value, PRF, IDENTITY),
                          PRF, IDENTITY)
        # Swapping to the other parity and back returns the original.
        assert back == value

    def test_odd_domain_last_element_unusable(self):
        domain = ["a", "b", "c"]
        algo = create_algorithm("categorical", {"domain": domain})
        last = KeyedPRF("unit-test-key").keyed_order(
            "categorical-order", domain)[-1]
        assert algo.extract(last, PRF, IDENTITY) is None
        assert algo.embed(last, 0, PRF, IDENTITY) == last

    def test_out_of_domain(self):
        algo = create_algorithm("categorical", {"domain": self.DOMAIN})
        assert not algo.applicable("unknown")
        assert algo.extract("unknown", PRF, IDENTITY) is None
        assert algo.embed("unknown", 1, PRF, IDENTITY) == "unknown"

    def test_domain_validation(self):
        with pytest.raises(AlgorithmError):
            create_algorithm("categorical", {"domain": ["solo"]})
        with pytest.raises(AlgorithmError):
            create_algorithm("categorical", {"domain": ["a", "a"]})
        with pytest.raises(AlgorithmError):
            create_algorithm("categorical", {"domain": ["a", 1]})

    def test_distortion(self):
        algo = create_algorithm("categorical", {"domain": self.DOMAIN})
        assert algo.distortion("mkp", "mkp") == 0.0
        assert algo.distortion("mkp", "acm") == 1.0


class TestTextCase:
    def test_roundtrip(self):
        algo = create_algorithm("text-case")
        for value in ("Senior Software Engineer", "data curator",
                      "XML Query Processing"):
            for bit in (0, 1):
                marked, extracted = roundtrip(algo, value, bit)
                assert extracted == bit

    def test_changes_at_most_one_char(self):
        algo = create_algorithm("text-case")
        value = "Readings in Database Systems"
        marked = algo.embed(value, 1, PRF, IDENTITY)
        differences = sum(a != b for a, b in zip(value, marked))
        assert differences <= 1
        assert marked.lower() == value.lower()

    def test_first_char_never_touched(self):
        algo = create_algorithm("text-case")
        for bit in (0, 1):
            marked = algo.embed("Engineer", bit, PRF, IDENTITY)
            assert marked[0] == "E"

    def test_not_applicable_without_letters(self):
        algo = create_algorithm("text-case")
        assert not algo.applicable("12345")
        assert not algo.applicable("X")  # only the protected first char
        assert algo.extract("12345", PRF, IDENTITY) is None

    def test_idempotent(self):
        algo = create_algorithm("text-case")
        once = algo.embed("hello world", 1, PRF, IDENTITY)
        assert algo.embed(once, 1, PRF, IDENTITY) == once


class TestBinaryLSB:
    PAYLOAD = base64.b64encode(bytes(range(64))).decode("ascii")

    def test_roundtrip(self):
        algo = create_algorithm("binary-lsb")
        for bit in (0, 1):
            marked, extracted = roundtrip(algo, self.PAYLOAD, bit)
            assert extracted == bit

    def test_output_is_valid_base64_same_length(self):
        algo = create_algorithm("binary-lsb")
        marked = algo.embed(self.PAYLOAD, 1, PRF, IDENTITY)
        decoded = base64.b64decode(marked)
        assert len(decoded) == 64

    def test_touches_at_most_spread_bytes(self):
        algo = create_algorithm("binary-lsb", {"spread": 4})
        marked = algo.embed(self.PAYLOAD, 1, PRF, IDENTITY)
        before = base64.b64decode(self.PAYLOAD)
        after = base64.b64decode(marked)
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert changed <= 4

    def test_survives_partial_corruption(self):
        # Majority voting over spread offsets tolerates one flipped byte.
        algo = create_algorithm("binary-lsb", {"spread": 7})
        marked = algo.embed(self.PAYLOAD, 1, PRF, IDENTITY)
        payload = bytearray(base64.b64decode(marked))
        offsets = PRF.offsets(IDENTITY, 7, len(payload))
        payload[offsets[0]] ^= 1  # destroy one carrier byte
        corrupted = base64.b64encode(bytes(payload)).decode("ascii")
        assert algo.extract(corrupted, PRF, IDENTITY) == 1

    def test_not_applicable(self):
        algo = create_algorithm("binary-lsb")
        assert not algo.applicable("not base64 at all!!!")
        assert not algo.applicable("")
        assert algo.extract("####", PRF, IDENTITY) is None

    def test_invalid_spread(self):
        with pytest.raises(AlgorithmError):
            create_algorithm("binary-lsb", {"spread": 0})

    def test_distortion(self):
        algo = create_algorithm("binary-lsb", {"spread": 4})
        marked = algo.embed(self.PAYLOAD, 1, PRF, IDENTITY)
        assert 0.0 <= algo.distortion(self.PAYLOAD, marked) <= 4 / 64


class TestDate:
    def test_roundtrip(self):
        algo = create_algorithm("date")
        for value in ("2005-08-30", "1999-01-01", "2020-02-28"):
            for bit in (0, 1):
                marked, extracted = roundtrip(algo, value, bit)
                assert extracted == bit

    def test_result_always_valid(self):
        algo = create_algorithm("date")
        for day in range(1, 32):
            value = f"2005-01-{day:02d}"
            for bit in (0, 1):
                marked = algo.embed(value, bit, PRF, IDENTITY)
                year, month, marked_day = marked.split("-")
                assert 1 <= int(marked_day) <= 31
                assert (year, month) == ("2005", "01")

    def test_moves_at_most_three_days(self):
        # Worst case is 31 -> 28 (clamping back into the always-valid
        # day range while preserving the embedded parity).
        algo = create_algorithm("date")
        for day in range(1, 32):
            value = f"2005-03-{day:02d}"
            marked = algo.embed(value, 0, PRF, IDENTITY)
            assert abs(int(marked[-2:]) - day) <= 3

    def test_not_applicable(self):
        algo = create_algorithm("date")
        assert not algo.applicable("30/08/2005")
        assert not algo.applicable("2005-13-01")
        assert algo.extract("nope", PRF, IDENTITY) is None

    def test_unchanged_when_parity_matches(self):
        algo = create_algorithm("date")
        assert algo.embed("2005-08-30", 0, PRF, IDENTITY) == "2005-08-30"


class TestCrossAlgorithm:
    def test_wrong_key_extracts_garbage_for_categorical(self):
        # The keyed ordering differs, so parity flips for some values.
        domain = [f"v{i}" for i in range(16)]
        algo = create_algorithm("categorical", {"domain": domain})
        other = KeyedPRF("different-key")
        flips = sum(
            algo.extract(v, PRF, IDENTITY) != algo.extract(v, other, IDENTITY)
            for v in domain)
        assert flips > 0

    def test_identity_binding_for_binary(self):
        algo = create_algorithm("binary-lsb", {"spread": 3})
        marked = algo.embed(self_payload(), 1, PRF, "identity-A")
        # Different identity reads different offsets: not guaranteed 1.
        values = {algo.extract(marked, PRF, f"identity-{i}")
                  for i in range(8)}
        assert None in values or 0 in values or 1 in values  # smoke
        assert algo.extract(marked, PRF, "identity-A") == 1


def self_payload() -> str:
    return base64.b64encode(bytes(range(48))).decode("ascii")
