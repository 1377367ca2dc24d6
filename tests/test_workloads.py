"""Tests for the repro.workloads package: batch types and generators."""

import random

import numpy as np
import pytest

from repro.api import Workload
from repro.filters.prefix_bloom import derived_prefix_len
from repro.keys.lcp import (
    bit_length_many,
    lcp_bits_many,
    query_set_lcp_many,
    unique_prefix_counts_array,
)
from repro.workloads import (
    ByteQueryBatch,
    EncodedKeySet,
    QueryBatch,
    clustered_keys,
    generate_workload,
    random_keys,
    zipf_keys,
)
from repro.workloads.batch import coerce_keys, decode_ints, probe_key_array
from scalar_reference import lcp_bits, query_set_lcp, unique_prefix_counts

WIDTH = 32


class TestVectorisedLcpHelpers:
    def test_bit_length_many_matches_python(self):
        rng = random.Random(1)
        values = [0, 1, 2, 3, (1 << 63) - 1] + [rng.randrange(1 << 63) for _ in range(500)]
        arr = np.array(values, dtype=np.int64)
        assert bit_length_many(arr).tolist() == [v.bit_length() for v in values]

    def test_lcp_bits_many_matches_scalar(self):
        rng = random.Random(2)
        a = [rng.randrange(1 << WIDTH) for _ in range(300)]
        b = [rng.randrange(1 << WIDTH) for _ in range(300)]
        batch = lcp_bits_many(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), WIDTH
        )
        assert batch.tolist() == [lcp_bits(x, y, WIDTH) for x, y in zip(a, b)]

    def test_unique_prefix_counts_array_matches_scalar(self):
        rng = random.Random(3)
        keys = sorted(set(rng.randrange(1 << WIDTH) for _ in range(800)))
        arr = np.array(keys, dtype=np.int64)
        assert unique_prefix_counts_array(arr, WIDTH).tolist() == (
            unique_prefix_counts(keys, WIDTH)
        )
        assert unique_prefix_counts_array(np.array([], dtype=np.int64), 8).tolist() == (
            unique_prefix_counts([], 8)
        )
        assert unique_prefix_counts_array(np.array([7], dtype=np.int64), 8).tolist() == (
            unique_prefix_counts([7], 8)
        )

    def test_query_set_lcp_many_matches_scalar(self):
        rng = random.Random(4)
        keys = sorted(set(rng.randrange(1 << WIDTH) for _ in range(500)))
        arr = np.array(keys, dtype=np.int64)
        queries = []
        for _ in range(400):
            lo = rng.randrange(1 << WIDTH)
            queries.append((lo, min((1 << WIDTH) - 1, lo + rng.randrange(1, 2000))))
        los = np.array([lo for lo, _ in queries], dtype=np.int64)
        his = np.array([hi for _, hi in queries], dtype=np.int64)
        batch = query_set_lcp_many(arr, los, his, WIDTH)
        assert batch.tolist() == [
            query_set_lcp(keys, lo, hi, WIDTH) for lo, hi in queries
        ]


class TestEncodedKeySet:
    def test_sorted_distinct_and_bounds(self):
        ks = EncodedKeySet([5, 1, 5, 3], 8)
        assert ks.as_list() == [1, 3, 5]
        assert len(ks) == 3 and ks.keys.dtype == np.int64
        with pytest.raises(ValueError):
            EncodedKeySet([300], 8)
        with pytest.raises(ValueError):
            EncodedKeySet([-1], 8)

    def test_prefixes_and_counts(self):
        ks = EncodedKeySet([0b0001, 0b0010, 0b1000], 4)
        assert ks.prefixes(1).tolist() == [0, 1]
        assert ks.prefixes(2).tolist() == [0b00, 0b10]
        assert ks.prefix_counts() == unique_prefix_counts([1, 2, 8], 4)

    def test_wide_space_takes_the_byte_path(self):
        # Integers wider than 64 bits are their big-endian bytes.
        ks = coerce_keys([1 << 127, 5], 128)
        assert ks.is_bytes and ks.max_length == 16
        assert ks.as_list() == [(5).to_bytes(16, "big"), b"\x80"]
        assert ks.first == (5).to_bytes(16, "big") and ks.last == b"\x80"
        assert ks.prefix_counts()[:2] == [1, 2]
        with pytest.raises(ValueError, match="coerce_keys"):
            EncodedKeySet([5], 128)
        with pytest.raises(ValueError, match="whole number of bytes"):
            coerce_keys([5], 70)

    def test_width_64_stores_offset_binary(self):
        top = (1 << 64) - 1
        user = [top, 0, 1 << 63, (1 << 63) - 1, 1]
        ks = EncodedKeySet(np.array(user, dtype=np.uint64), 64)
        assert ks.as_list() == sorted(user)
        assert ks.keys.tolist() == [-(1 << 63), 1 - (1 << 63), -1, 0, (1 << 63) - 1]
        assert (ks.first, ks.last) == (0, top)
        # l-bit prefixes are the user's prefixes less 2**(l - 1); no shift by 64.
        assert ks.prefixes(1).tolist() == [-1, 0]
        assert ks.prefixes(0).tolist() == [0]
        assert ks.prefix_counts() == unique_prefix_counts(sorted(user), 64)
        assert EncodedKeySet(sorted(user), 64).keys.tolist() == ks.keys.tolist()
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError, match=f"key {bad} outside the 64-bit"):
                EncodedKeySet([0, bad], 64)

    def test_slice_is_a_zero_copy_view(self):
        ks = EncodedKeySet(range(100), 16)
        view = ks.slice(10, 40)
        assert isinstance(view, EncodedKeySet)
        assert view.as_list() == list(range(10, 40))
        # The pin of the satellite: basic slicing must share the buffer —
        # the view's base *is* the parent array, no copy anywhere.
        assert view.keys.base is ks.keys
        assert np.shares_memory(view.keys, ks.keys)

    def test_slice_bounds_and_invariants(self):
        ks = EncodedKeySet([2, 4, 6, 8], 8)
        assert ks.slice(0, 4).as_list() == [2, 4, 6, 8]
        assert ks.slice(2, 2).as_list() == []
        assert ks.slice(1, 3).prefix_counts() == unique_prefix_counts([4, 6], 8)
        for start, stop in ((-1, 2), (3, 2), (0, 5)):
            with pytest.raises(ValueError):
                ks.slice(start, stop)

    def test_slice_of_wide_space_keys(self):
        ks = coerce_keys([5, 1 << 80, 1 << 90], 128)
        view = ks.slice(1, 3)
        assert view.is_bytes
        assert view.as_list() == [
            (1 << 80).to_bytes(16, "big").rstrip(b"\x00"),
            (1 << 90).to_bytes(16, "big").rstrip(b"\x00"),
        ]
        assert view.keys.base is ks.keys


class TestQueryBatch:
    def test_roundtrip_and_points(self):
        batch = QueryBatch.from_pairs([(1, 4), (9, 9)], 8)
        assert batch.to_list() == [(1, 4), (9, 9)]
        # The widest query spans 4 keys, 2 bits of slot: 6-bit prefixes.
        assert derived_prefix_len(8, Workload(EncodedKeySet([2], 8), batch)) == 6
        points = QueryBatch.points([3, 7], 8)
        assert points.to_list() == [(3, 3), (7, 7)]
        top = (1 << 64) - 1
        wide = QueryBatch.from_pairs([(0, top), (1 << 63, 1 << 63)], 64)
        assert wide.to_list() == [(0, top), (1 << 63, 1 << 63)]
        assert wide.los.tolist() == [-(1 << 63), 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryBatch.from_pairs([(5, 3)], 8)
        with pytest.raises(ValueError):
            QueryBatch.from_pairs([(-2, 3)], 8)
        with pytest.raises(ValueError):
            QueryBatch.from_pairs([(0, 256)], 8)
        with pytest.raises(ValueError):
            QueryBatch.from_pairs([(0, 1 << 70)], 16)

    def test_out_of_space_bounds_report_the_users_values(self):
        # A uint64 bound past int64 is reported as itself, never wrapped.
        with pytest.raises(
            ValueError,
            match=r"query range \[1, 9223372036854775811\] outside the 32-bit key space",
        ):
            QueryBatch(np.array([1], np.uint64), np.array([2**63 + 3], np.uint64), 32)
        with pytest.raises(ValueError, match=r"query range \[0, 18446744073709551616\] outside"):
            QueryBatch([0], [1 << 64], 64)
        with pytest.raises(ValueError, match=r"empty query range \[18446744073709551615, 5\]"):
            QueryBatch([(1 << 64) - 1], [5], 64)
        with pytest.raises(ValueError, match="coerce_query_batch"):
            QueryBatch([0], [1], 80)

    def test_empty_batch(self):
        batch = QueryBatch.from_pairs([], 8)
        assert len(batch) == 0 and batch.to_list() == []

    def test_select_carries_validation_state(self):
        # Rows of a validated batch need no second check: select keeps the
        # batch's type and space and wraps the selected stored arrays.
        batch = QueryBatch.from_pairs([(1, 4), (9, 9), (20, 30)], 8)
        sub = batch.select(np.array([True, False, True]))
        assert sub.to_list() == [(1, 4), (20, 30)]
        assert type(sub) is QueryBatch and sub.width == batch.width
        words = ByteQueryBatch.from_pairs([(b"a", b"b"), (b"c", b"cz")], 3)
        sub = words.select(np.array([1]))
        assert type(sub) is ByteQueryBatch and sub.max_length == 3
        assert list(sub.byte_pairs()) == [(b"c", b"cz")]


class TestGenerators:
    def test_deterministic_and_distinct(self):
        for generator in (random_keys, zipf_keys, clustered_keys):
            first = generator(random.Random(11), 2000, WIDTH)
            second = generator(random.Random(11), 2000, WIDTH)
            assert first == second, generator.__name__
            assert len(set(first)) == 2000, generator.__name__
            assert all(0 <= key < (1 << WIDTH) for key in first), generator.__name__

    def test_distribution_shapes(self):
        # Zipf keys pile up low: the median is far below the space midpoint.
        zipf = zipf_keys(random.Random(12), 2000, WIDTH)
        assert sorted(zipf)[1000] < (1 << WIDTH) // 4
        # Clustered keys have long runs of shared high bits: many adjacent
        # pairs agree on their top 16 bits, unlike uniform keys.
        clustered = sorted(clustered_keys(random.Random(13), 2000, WIDTH))
        close = sum(
            1
            for a, b in zip(clustered, clustered[1:])
            if (a >> 16) == (b >> 16)
        )
        assert close > 1000

    @pytest.mark.parametrize("width", [63, 64, 80])
    def test_uniform_keys_at_wide_widths(self, width):
        keys = random_keys(random.Random(21), 500, width)
        assert keys == random_keys(random.Random(21), 500, width)
        assert len(set(keys)) == 500
        assert all(0 <= key < (1 << width) for key in keys)
        assert max(keys) >= 1 << (width - 2)  # spread over the whole space
        key_set, batch = generate_workload(200, 50, width, seed=3, key_dist="uniform")
        assert len(key_set) == 200 and len(batch) == 50

    def test_uniform_keys_below_63_bits_keep_their_draws(self):
        # Up to 62 bits the draw is rng.sample over the whole space, so
        # every seeded workload and committed report stays reproducible.
        assert random_keys(random.Random(5), 4, 32) == [
            2675342405, 3185950873, 4051686260, 2787324501,
        ]

    def test_saturated_spaces_top_up(self):
        assert len(set(zipf_keys(random.Random(14), 256, 8))) == 256
        assert len(set(clustered_keys(random.Random(15), 256, 8))) == 256
        with pytest.raises(ValueError):
            zipf_keys(random.Random(16), 300, 8)

    def test_generate_workload(self):
        keys, batch = generate_workload(
            1000, 400, WIDTH, seed=17, key_dist="clustered", query_family="correlated"
        )
        assert len(keys) == 1000 and len(batch) == 400
        keys2, batch2 = generate_workload(
            1000, 400, WIDTH, seed=17, key_dist="clustered", query_family="correlated"
        )
        assert keys.as_list() == keys2.as_list()
        assert batch.to_list() == batch2.to_list()
        with pytest.raises(ValueError, match="key distribution"):
            generate_workload(10, 10, 8, key_dist="nope")
        with pytest.raises(ValueError, match="query family"):
            generate_workload(10, 10, 8, query_family="nope")


@pytest.mark.parametrize("width", [8, 32, 63, 64, 80])
def test_probe_key_array_checks_the_integer_range(width):
    """Both ends of the space pass; one past either end raises, int64 or bytes."""
    top = (1 << width) - 1
    probes = probe_key_array([top, 0, top], width)
    small = probe_key_array(np.array([0, 1, 0], dtype=np.uint8), width)
    if width <= 64:
        assert probes.dtype == np.int64
        assert decode_ints(probes, width).tolist() == [top, 0, top]
        assert decode_ints(small, width).tolist() == [0, 1, 0]
    else:
        assert probes.dtype == f"S{width // 8}"
        assert probes.tolist() == [b"\xff" * (width // 8), b"", b"\xff" * (width // 8)]
        assert small.tolist() == [b"", (1).to_bytes(width // 8, "big"), b""]
    for bad in (-1, top + 1, -(2**70)):
        with pytest.raises(ValueError, match=f"key {bad} outside the {width}-bit key space"):
            probe_key_array([0, bad, 0], width)
