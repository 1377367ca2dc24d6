"""Randomized oracle tests: every filter vs the exact TrieOracle.

The single invariant every range filter in the repository must uphold is
**zero false negatives**: whenever the oracle answers True (a key really is
present / really falls in the range), the filter must answer True too, for
point and range queries alike.  Each filter is driven through the same
seeded mixed workload (uniform ranges, point lookups, near-miss ranges).
"""

import bisect
import random

import numpy as np
import pytest

from conftest import mixed_queries, random_keys
from repro.api import FilterSpec, Workload, build_filter, registered_families
from repro.core.prf import TwoPBF
from repro.filters.base import TrieOracle
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.rosetta import Rosetta, dyadic_intervals
from repro.filters.surf import SuRF
from repro.workloads.batch import coerce_keys

WIDTH = 32
NUM_KEYS = 1500


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(101)
    keys = random_keys(rng, NUM_KEYS, WIDTH)
    queries = mixed_queries(rng, keys, 600, WIDTH)
    return keys, queries, TrieOracle(keys, WIDTH)


def _budget(bits_per_key: float = 12.0) -> int:
    return int(bits_per_key * NUM_KEYS)


FILTER_FACTORIES = {
    "prefix_bloom_16": lambda keys, queries: PrefixBloomFilter(
        keys, WIDTH, prefix_len=16, num_bits=_budget()
    ),
    "prefix_bloom_full": lambda keys, queries: PrefixBloomFilter(
        keys, WIDTH, prefix_len=WIDTH, num_bits=_budget()
    ),
    "surf": lambda keys, queries: SuRF(keys, WIDTH),
    "surf_shallow": lambda keys, queries: SuRF(keys, WIDTH, max_depth=2),
    "rosetta": lambda keys, queries: Rosetta(
        keys, WIDTH, total_bits=_budget(16.0), num_levels=16
    ),
    "one_pbf": lambda keys, queries: _self_designed("1pbf", keys, queries),
    "two_pbf": lambda keys, queries: _self_designed("2pbf", keys, queries),
    "proteus": lambda keys, queries: _self_designed("proteus", keys, queries),
}


def _self_designed(family, keys, queries, bits_per_key=12.0):
    workload = Workload(keys, queries, width=WIDTH)
    return build_filter(FilterSpec(family, float(bits_per_key)), workload.keys, workload)


@pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
def test_zero_false_negatives(name, workload):
    keys, queries, oracle = workload
    filt = FILTER_FACTORIES[name](keys, queries)
    for key in keys:
        assert filt.may_contain(key), f"{name}: false negative on point {key}"
    for lo, hi in queries:
        if oracle.may_intersect(lo, hi):
            assert filt.may_intersect(lo, hi), (
                f"{name}: false negative on range [{lo}, {hi}]"
            )
    # Point queries through the range interface must agree with may_contain.
    rng = random.Random(102)
    for _ in range(200):
        key = keys[rng.randrange(len(keys))]
        assert filt.may_intersect(key, key)


def _int_oracle_case(rng: random.Random, width: int):
    """Keys and probes in a ``width``-bit space, with the keys around ``2**63``."""
    top = (1 << width) - 1
    keys = {0, (1 << 63) - 1, (1 << 63) + 1, top} | {rng.randrange(top) for _ in range(300)}
    points = sorted(keys)[::3] + [1 << 63, 1, top - 1] + [rng.randrange(top) for _ in range(200)]
    ranges = [(0, top), (1 << 63, 1 << 63), ((1 << 63) - 1, 1 << 63), (top - 1, top)]
    for key in sorted(keys)[::2]:
        span = rng.randrange(1 << rng.choice((4, width // 2)))
        ranges += [(key, min(key + span, top)), (min(key + 1, top), min(key + 1 + span, top))]
    return width, sorted(keys), points, ranges


def test_oracle_is_exact(workload):
    # The oracle's scalar and batched answers are one sorted-array search;
    # bisect over the user's keys pins both, at every key representation:
    # plain int64 (width 32), the width-64 stored form (keys 0, 2**63 ± 1
    # and 2**64 - 1, the full-space query), integers wider than 64 bits and
    # byte strings.
    keys, queries, _ = workload
    rng = random.Random(103)
    cases = [
        (WIDTH, sorted(set(keys)), [rng.randrange(1 << WIDTH) for _ in range(500)], queries),
        _int_oracle_case(rng, 64),
        _int_oracle_case(rng, 80),
    ]
    byte_keys = sorted(
        {
            bytes([rng.choice(b"abyz")]) + bytes(rng.choice(b"ab\x00yz") for _ in range(length))
            for length in (rng.randrange(4) for _ in range(200))
        }
    )
    for width, stored, points, ranges in cases:
        oracle = TrieOracle(stored, width)
        key_set = set(stored)
        truth = [point in key_set for point in points]
        assert [oracle.may_contain(point) for point in points] == truth, width
        assert oracle.may_contain_many(points).tolist() == truth, width
        truth = [
            (index := bisect.bisect_left(stored, lo)) < len(stored) and stored[index] <= hi
            for lo, hi in ranges
        ]
        assert [oracle.may_intersect(lo, hi) for lo, hi in ranges] == truth, width
        assert oracle.may_intersect_many(ranges).tolist() == truth, width
    # Byte keys: scalar probes are padded big-endian integers, batched ones
    # raw byte strings; keys that differ only in trailing nulls are one key.
    key_set = coerce_keys(byte_keys)
    oracle = TrieOracle(key_set, key_set.width)
    length = key_set.width // 8

    def padded(key: bytes) -> int:
        return int.from_bytes(key.ljust(length, b"\x00"), "big")

    stored = sorted({padded(key) for key in byte_keys})
    probes = byte_keys[::3] + [key + b"a" for key in byte_keys[::7]] + [b"b\x00", b"zzzzz"]
    probes = [probe[:length] for probe in probes]
    truth = [padded(probe) in set(stored) for probe in probes]
    assert [oracle.may_contain(padded(probe)) for probe in probes] == truth
    assert oracle.may_contain_many(np.array(probes, dtype=f"S{length}")).tolist() == truth
    pairs = [tuple(sorted(rng.sample(byte_keys, 2))) for _ in range(150)]
    pairs += [(key + b"\x01", key + b"\x02") for key in byte_keys[::5] if len(key) < length]
    pairs += [(b"\x00", b"\xff" * length)]
    truth = [
        (index := bisect.bisect_left(stored, padded(lo))) < len(stored)
        and stored[index] <= padded(hi)
        for lo, hi in pairs
    ]
    assert [oracle.may_intersect(padded(lo), padded(hi)) for lo, hi in pairs] == truth
    assert oracle.may_intersect_many(pairs).tolist() == truth


def test_oracle_empty_key_set():
    oracle = TrieOracle([], WIDTH)
    assert not oracle.may_contain(42)
    assert not oracle.may_intersect(0, (1 << WIDTH) - 1)


def test_dyadic_intervals_cover_exactly():
    rng = random.Random(104)
    width = 12
    for _ in range(200):
        lo = rng.randrange(1 << width)
        hi = rng.randrange(lo, 1 << width)
        covered = []
        for prefix, level in dyadic_intervals(lo, hi, width):
            shift = width - level
            covered.append((prefix << shift, (prefix << shift) + (1 << shift) - 1))
        covered.sort()
        assert covered[0][0] == lo
        assert covered[-1][1] == hi
        for (_, prev_hi), (next_lo, _) in zip(covered, covered[1:]):
            assert next_lo == prev_hi + 1  # contiguous, no overlap, no gap


def test_surf_non_byte_width_keeps_distinguishing_bits():
    # Regression: with a 9-bit width the keys are MSB-padded to 2 bytes; the
    # byte-depth rounding must count the 7 pad bits or both keys collapse to
    # the all-zero byte prefix covering the entire space.
    filt = SuRF([0, 64], width=9)
    assert filt.may_contain(0) and filt.may_contain(64)
    assert not filt.may_contain(200)
    assert not filt.may_intersect(128, 180)
    assert filt.may_intersect(60, 70)


def test_rosetta_definitive_negative_on_last_probe():
    # Regression: a Bloom negative that lands exactly when the probe budget
    # reaches zero is still a trustworthy negative, not a conservative True.
    filt = Rosetta([200], width=8, total_bits=1024, max_probes=1)
    assert not filt.may_intersect(8, 11)
    assert filt.may_intersect(199, 201)


def test_two_pbf_survives_tiny_budget():
    # Regression: the 1PBF-fallback and no-empty-queries paths must never
    # hand a zero-bit layer to BloomFilter.
    spec = FilterSpec("2pbf", 1.0)
    workload = Workload([5], [(1, 2)], width=8)
    filt = TwoPBF.from_spec(spec, workload.keys, workload)
    assert filt.may_contain(5)
    assert filt.design.trie_bits >= 1 and filt.design.bloom_bits >= 1
    workload = Workload([5], [(5, 5)], width=8)
    no_empty = TwoPBF.from_spec(spec, workload.keys, workload)
    assert no_empty.may_contain(5)
    # A 1-bit key space cannot host two layers: clear error, not a crash deep
    # in the fallback path.
    workload = Workload([0], [(1, 1)], width=1)
    with pytest.raises(ValueError, match="at least 2 bits"):
        TwoPBF.from_spec(FilterSpec("2pbf", 4.0), workload.keys, workload)


def test_filters_report_sizes(workload):
    keys, queries, _ = workload
    for name, factory in FILTER_FACTORIES.items():
        filt = factory(keys, queries)
        assert filt.size_in_bits() > 0, name
        assert filt.bits_per_key() > 0, name


# --------------------------------------------------------------------- #
# Wide integers: width 64 stored as key - 2**63, width 80 as bytes      #
# --------------------------------------------------------------------- #

HALF = 1 << 63


@pytest.fixture(scope="module", params=[64, 80])
def wide_int_workload(request):
    """Keys at 0, on both sides of 2**63 and at the top of the space.

    At width 80 most keys are below 2**72, so their byte prefixes start
    with zero bytes.
    """
    width = request.param
    top = (1 << width) - 1
    rng = random.Random(105)
    boundary = [0, 1, HALF - 1, HALF, HALF + 1, top]
    keys = sorted(
        set(boundary)
        | {rng.randrange(top + 1) for _ in range(400)}
        | {HALF + rng.randint(-3000, 3000) for _ in range(100)}
    )
    queries = [(0, top), (0, HALF - 1), (HALF, top), (HALF - 1, HALF), (1, top - 1)]
    for _ in range(250):
        # Ranges straddling 2**63, near misses around keys, wide ranges.
        below = rng.randint(1, 1 << rng.randint(1, 40))
        queries.append((HALF - below, HALF + rng.randint(0, 5000)))
        key = rng.choice(keys)
        lo = min(top, key + 1 + rng.randrange(20))
        queries.append((lo, min(top, lo + rng.randrange(1, 200))))
        lo = rng.randrange(top)
        queries.append((lo, min(top, lo + (1 << rng.randint(0, width - 2)))))
    workload = Workload(keys, queries, width=width)
    probes = keys + boundary + [rng.randrange(top + 1) for _ in range(200)]
    return keys, probes, queries, workload, TrieOracle(workload.keys, width)


def test_wide_int_key_sets_show_the_users_keys(wide_int_workload):
    keys, _, queries, workload, _ = wide_int_workload
    top = (1 << workload.width) - 1
    if workload.width == 64:
        assert workload.keys.keys.dtype.kind == "i"  # the int64 stored form
        assert workload.keys.as_list() == keys
        assert list(workload.keys) == keys
        assert (workload.keys.first, workload.keys.last) == (0, top)
    else:
        assert workload.keys.is_bytes
        assert workload.keys.last == top.to_bytes(10, "big")
    assert list(workload.queries.pairs()) == queries


@pytest.mark.parametrize("family", sorted(registered_families()))
def test_wide_int_boundaries(family, wide_int_workload):
    keys, probes, queries, workload, oracle = wide_int_workload
    filt = build_filter(FilterSpec(family, 12.0), workload.keys, workload)
    scalar_points = [filt.may_contain(key) for key in probes]
    assert all(scalar_points[: len(keys)]), f"{family}: false negative on a key"
    assert filt.may_contain_many(probes).tolist() == scalar_points
    scalar_ranges = [filt.may_intersect(lo, hi) for lo, hi in queries]
    for (lo, hi), answer in zip(queries, scalar_ranges):
        if oracle.may_intersect(lo, hi):
            assert answer, f"{family}: false negative on [{lo}, {hi}]"
    assert filt.may_intersect_many(workload.queries).tolist() == scalar_ranges
    assert filt.may_intersect_many(queries).tolist() == scalar_ranges
