"""Unit tests for the keyed PRF."""

import hashlib
import hmac

import pytest

from repro.api import Pipeline
from repro.core import KeyedPRF
from repro.datasets import bibliography


class TestKeyedPRF:
    def test_deterministic(self):
        a = KeyedPRF("secret")
        b = KeyedPRF("secret")
        assert a.digest("p", "x") == b.digest("p", "x")
        assert a.integer("p", "x") == b.integer("p", "x")

    def test_key_separation(self):
        a = KeyedPRF("secret-1")
        b = KeyedPRF("secret-2")
        assert a.digest("p", "x") != b.digest("p", "x")

    def test_purpose_separation(self):
        prf = KeyedPRF("secret")
        assert prf.digest("p1", "x") != prf.digest("p2", "x")

    def test_part_boundaries_matter(self):
        # ("ab", "c") must differ from ("a", "bc").
        prf = KeyedPRF("secret")
        assert prf.digest("p", "ab", "c") != prf.digest("p", "a", "bc")

    def test_bytes_key_accepted(self):
        assert KeyedPRF(b"raw-bytes").integer("p") >= 0

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            KeyedPRF("")

    def test_fingerprint_is_stable_and_short(self):
        prf = KeyedPRF("secret")
        assert prf.fingerprint() == KeyedPRF("secret").fingerprint()
        assert len(prf.fingerprint()) == 16

    def test_bit_values(self):
        prf = KeyedPRF("secret")
        bits = {prf.bit("p", str(i)) for i in range(64)}
        assert bits == {0, 1}

    def test_stream_length_and_determinism(self):
        prf = KeyedPRF("secret")
        assert len(prf.stream("p", 100, "x")) == 100
        assert prf.stream("p", 100, "x") == prf.stream("p", 100, "x")
        assert prf.stream("p", 33, "x") == prf.stream("p", 100, "x")[:33]


class TestSelection:
    def test_gamma_one_selects_all(self):
        prf = KeyedPRF("secret")
        assert all(prf.selects(f"id-{i}", 1) for i in range(50))

    def test_gamma_one_computes_no_digest(self):
        # HMAC mod 1 is always 0: nothing to compute, nothing memoised.
        prf = KeyedPRF("secret")
        identities = [f"id-{i}" for i in range(50)]
        assert prf.selects_many(identities, 1) == [True] * 50
        assert prf.selects_many(iter(identities), 1) == [True] * 50
        assert prf.selects("id-0", 1)
        assert prf._memo == {}

    def test_gamma_one_pipeline_memo_has_no_selection_entries(self):
        scheme = bibliography.default_scheme(1)
        document = bibliography.generate_document(
            bibliography.BibliographyConfig(books=20, editors=3, seed=5))
        pipeline = Pipeline(scheme, "secret")
        result = pipeline.embed(document, "(c) memo")
        assert pipeline.detect(result.document, result.record,
                               expected="(c) memo").detected
        for prf in (pipeline._encoder.prf, pipeline._decoder.prf):
            assert prf._memo
            assert not [key for key in prf._memo if key[0] == "wm-select"]

    def test_gamma_above_one_answers_unchanged(self):
        prf = KeyedPRF("secret")
        identities = [f"id-{i}" for i in range(400)]
        for gamma in (2, 3, 7):
            expected = [
                int.from_bytes(hmac.new(
                    b"secret", b"wm-select\x1f" + identity.encode(),
                    hashlib.sha256).digest()[:8], "big") % gamma == 0
                for identity in identities]
            assert prf.selects_many(identities, gamma) == expected
            assert [prf.selects(identity, gamma)
                    for identity in identities] == expected

    def test_gamma_rate_roughly_inverse(self):
        prf = KeyedPRF("secret")
        gamma = 4
        selected = sum(prf.selects(f"id-{i}", gamma) for i in range(4000))
        assert 800 <= selected <= 1200  # expectation 1000

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            KeyedPRF("secret").selects("x", 0)

    def test_bit_index_range_and_coverage(self):
        prf = KeyedPRF("secret")
        nbits = 16
        indices = [prf.bit_index(f"id-{i}", nbits) for i in range(800)]
        assert all(0 <= index < nbits for index in indices)
        assert set(indices) == set(range(nbits))

    def test_bit_index_invalid(self):
        with pytest.raises(ValueError):
            KeyedPRF("secret").bit_index("x", 0)


class TestOffsets:
    def test_distinct_and_in_range(self):
        prf = KeyedPRF("secret")
        offsets = prf.offsets("id", 8, 100)
        assert len(offsets) == 8
        assert len(set(offsets)) == 8
        assert all(0 <= o < 100 for o in offsets)

    def test_small_modulus_uses_all(self):
        prf = KeyedPRF("secret")
        assert prf.offsets("id", 8, 3) == [0, 1, 2]

    def test_zero_modulus(self):
        assert KeyedPRF("secret").offsets("id", 8, 0) == []

    def test_deterministic(self):
        assert KeyedPRF("k").offsets("id", 5, 50) == \
            KeyedPRF("k").offsets("id", 5, 50)


class TestKeyedOrder:
    def test_permutation(self):
        prf = KeyedPRF("secret")
        items = [f"v{i}" for i in range(10)]
        ordered = prf.keyed_order("p", items)
        assert sorted(ordered) == sorted(items)

    def test_key_dependent(self):
        items = [f"v{i}" for i in range(10)]
        a = KeyedPRF("k1").keyed_order("p", items)
        b = KeyedPRF("k2").keyed_order("p", items)
        assert a != b  # overwhelmingly likely

    def test_input_order_independent(self):
        prf = KeyedPRF("secret")
        items = [f"v{i}" for i in range(10)]
        assert prf.keyed_order("p", items) == \
            prf.keyed_order("p", list(reversed(items)))
