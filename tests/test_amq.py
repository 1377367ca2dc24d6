"""Unit tests for the seed ``repro.amq`` modules, including the generalised
``bloom_fpr`` (Eq. 6 is only exact at the optimal load)."""

import math
import random

import pytest

from repro.amq import (
    BitArray,
    BloomFilter,
    bloom_fpr,
    bloom_hash_count,
    hash_int_64,
    hash_pair,
    mix64,
)


class TestBitArray:
    def test_set_get_clear(self):
        bits = BitArray(100)
        bits.set(0)
        bits.set(99)
        assert bits.get(0) and bits.get(99) and not bits.get(50)
        bits.clear(0)
        assert not bits.get(0)
        assert bits.count() == 1

    def test_roundtrip(self):
        rng = random.Random(11)
        pattern = [rng.random() < 0.3 for _ in range(77)]
        bits = BitArray.from_bits(pattern)
        assert list(bits) == pattern
        assert list(BitArray.from_bytes(bits.to_bytes(), 77)) == pattern

    def test_bounds(self):
        bits = BitArray(8)
        with pytest.raises(IndexError):
            bits.set(8)
        with pytest.raises(IndexError):
            bits.set_many([0, 9])


class TestHashing:
    def test_mix64_is_deterministic_and_mixing(self):
        assert mix64(0x1234) == mix64(0x1234)
        assert mix64(0) != mix64(1)

    def test_hash_pair_second_hash_is_odd(self):
        for value in (0, 1, 1 << 80, 987654321):
            _, h2 = hash_pair(value)
            assert h2 % 2 == 1

    def test_wide_integers_hash(self):
        wide = 1 << 500
        assert hash_int_64(wide) != hash_int_64(wide + 1)
        with pytest.raises(ValueError):
            hash_int_64(-1)


class TestBloomFpr:
    def test_equation6_recovered_near_optimal_load(self):
        # At m/n = 10 the uncapped optimum k = 6.93; with k frozen at the
        # true optimum the general formula collapses to 0.5^k.
        m, n = 100000, 10000
        k_opt = m / n * math.log(2)
        general = (1.0 - math.exp(-k_opt * n / m)) ** k_opt
        assert general == pytest.approx(0.5**k_opt, rel=1e-9)

    def test_overprovisioned_filter_beats_half_power_k(self):
        # 1000 bits/item caps k at 32; the true FPR is astronomically below
        # Eq. 6's 0.5^32, which the seed implementation reported.
        fpr = bloom_fpr(10000, 10)
        assert fpr < 0.5**32 / 1e10

    def test_underprovisioned_filter_is_worse_than_eq6(self):
        # 2 bits/item: k = 2, true FPR (1 - e^-1)^2 = 0.3996 > 0.25 = 0.5^2.
        fpr = bloom_fpr(20000, 10000)
        assert fpr == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-6)
        assert fpr > 0.25

    def test_explicit_hash_count(self):
        assert bloom_fpr(1000, 100, num_hashes=1) == pytest.approx(
            1 - math.exp(-0.1), rel=1e-9
        )
        with pytest.raises(ValueError):
            bloom_fpr(1000, 100, num_hashes=0)

    def test_edge_cases(self):
        assert bloom_fpr(1000, 0) == 0.0
        assert bloom_fpr(0, 10) == 1.0
        assert 1 <= bloom_hash_count(1000, 100) <= 32


class TestBloomFilters:
    def test_no_false_negatives(self):
        rng = random.Random(12)
        items = rng.sample(range(1 << 40), 2000)
        bloom = BloomFilter.from_items(items, num_bits=2000 * 10, seed=3)
        assert all(bloom.contains(item) for item in items)

    def test_empirical_fpr_tracks_theory(self):
        rng = random.Random(13)
        universe = 1 << 40
        items = set(rng.sample(range(universe), 5000))
        bloom = BloomFilter.from_items(list(items), num_bits=5000 * 10, seed=5)
        probes = 0
        positives = 0
        while probes < 20000:
            candidate = rng.randrange(universe)
            if candidate in items:
                continue
            probes += 1
            positives += bloom.contains(candidate)
        empirical = positives / probes
        theoretical = bloom.theoretical_fpr()
        assert empirical < 3 * theoretical + 0.002
        assert theoretical < 3 * empirical + 0.002
