"""Unit tests for the seed ``repro.keys`` modules and the scalar LCP references."""

import random

from scalar_reference import (
    lcp_bits,
    min_distinguishing_prefix_lengths,
    query_set_lcp,
    unique_prefix_counts,
)


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
