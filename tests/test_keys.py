"""Unit tests for the seed ``repro.keys`` modules and the scalar LCP references."""

import random

import pytest

from repro.keys import IntegerKeySpace, StringKeySpace
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
