"""Unit tests for the seed ``repro.keys`` modules and the scalar LCP references."""

import random

import pytest

from repro.keys import (
    IntegerKeySpace,
    StringKeySpace,
    prefix_of,
    prefix_range,
    prefix_range_count,
    prefix_to_range,
)
from scalar_reference import (
    lcp_bits,
    min_distinguishing_prefix_lengths,
    query_set_lcp,
    unique_prefix_counts,
)


class TestKeySpaces:
    def test_integer_roundtrip(self):
        space = IntegerKeySpace(16)
        for value in (0, 1, 12345, (1 << 16) - 1):
            assert space.decode(space.encode(value)) == value

    def test_integer_out_of_range(self):
        space = IntegerKeySpace(8)
        with pytest.raises(ValueError):
            space.encode(256)
        with pytest.raises(ValueError):
            space.encode(-1)

    def test_string_preserves_order(self):
        space = StringKeySpace(8)
        words = [b"", b"a", b"aa", b"ab", b"b", b"ba", b"zz", b"zzzzzzzz"]
        encoded = [space.encode(w) for w in words]
        assert encoded == sorted(encoded)

    def test_string_roundtrip_and_padding(self):
        space = StringKeySpace.for_keys(["apple", "fig", "banana"])
        assert space.max_length == 6
        assert space.decode(space.encode("fig")) == b"fig"
        # Null padding means a short key and its padded twin collide.
        assert space.encode(b"fig") == space.encode(b"fig\x00")

    def test_string_too_long(self):
        with pytest.raises(ValueError):
            StringKeySpace(3).encode(b"abcd")


class TestPrefixArithmetic:
    def test_prefix_of_endpoints(self):
        assert prefix_of(0b1011, 0, 4) == 0
        assert prefix_of(0b1011, 4, 4) == 0b1011
        assert prefix_of(0b1011, 2, 4) == 0b10

    def test_prefix_to_range_inverts_prefix_of(self):
        rng = random.Random(3)
        width = 16
        for _ in range(200):
            key = rng.randrange(1 << width)
            length = rng.randrange(width + 1)
            lo, hi = prefix_to_range(prefix_of(key, length, width), length, width)
            assert lo <= key <= hi

    def test_prefix_range_brute_force(self):
        width = 8
        rng = random.Random(4)
        for _ in range(100):
            lo = rng.randrange(1 << width)
            hi = rng.randrange(lo, 1 << width)
            length = rng.randrange(width + 1)
            expected = {prefix_of(v, length, width) for v in range(lo, hi + 1)}
            plo, phi = prefix_range(lo, hi, length, width)
            assert set(range(plo, phi + 1)) == expected
            assert prefix_range_count(lo, hi, length, width) == len(expected)


class TestLcp:
    def test_lcp_bits_brute_force(self):
        width = 8
        for a in range(0, 256, 7):
            for b in range(0, 256, 11):
                expected = 0
                for length in range(width + 1):
                    if a >> (width - length) == b >> (width - length):
                        expected = length
                assert lcp_bits(a, b, width) == expected

    def test_unique_prefix_counts_brute_force(self):
        width = 12
        rng = random.Random(5)
        keys = sorted(rng.sample(range(1 << width), 200))
        counts = unique_prefix_counts(keys, width)
        for length in range(width + 1):
            assert counts[length] == len({k >> (width - length) for k in keys})

    def test_query_set_lcp_brute_force(self):
        width = 10
        rng = random.Random(6)
        keys = sorted(rng.sample(range(1 << width), 40))
        for _ in range(200):
            lo = rng.randrange(1 << width)
            hi = min((1 << width) - 1, lo + rng.randrange(1, 64))
            expected = max(
                (lcp_bits(k, v, width) for k in keys for v in (lo, hi)),
                default=0,
            )
            if any(lo <= k <= hi for k in keys):
                expected = width
            assert query_set_lcp(keys, lo, hi, width) == expected

    def test_min_distinguishing_prefixes_are_unique(self):
        width = 16
        rng = random.Random(7)
        keys = sorted(rng.sample(range(1 << width), 300))
        lengths = min_distinguishing_prefix_lengths(keys, width)
        truncated = [k >> (width - n) << (width - n) for k, n in zip(keys, lengths)]
        # At its distinguishing length, each key's prefix matches no other key.
        for key, length in zip(keys, lengths):
            if length == width:
                continue
            matches = [k for k in keys if k >> (width - length) == key >> (width - length)]
            assert matches == [key]
        assert len(truncated) == len(keys)
