"""Unit tests for the trie substrate: the pointer byte trie the succinct trie
is held to (including the unsorted-insert regression), rank/select vector,
sorted prefix index and size models."""

import random

import numpy as np
import pytest

from pointer_trie import ByteTrie
from repro.trie.bitvector import RankSelectBitVector
from repro.trie.size_model import (
    binary_trie_size_estimate,
    fst_size_estimate,
    louds_dense_level_bits,
    louds_sparse_level_bits,
)
from repro.trie.sorted_index import SortedPrefixIndex


class TestByteTrie:
    def test_prefix_free_construction(self):
        trie = ByteTrie([b"ab", b"a", b"abc", b"b"])
        assert sorted(trie.leaves()) == [b"a", b"b"]
        assert trie.num_leaves == 2
        assert trie.height == 1

    def test_match_and_range_brute_force(self):
        rng = random.Random(21)
        prefixes = {
            bytes(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
            for _ in range(60)
        }
        trie = ByteTrie(prefixes)
        stored = set(trie.leaves())
        width_bytes = 3

        def covers(key: bytes) -> bool:
            return any(key[: len(p)] == p for p in stored)

        for _ in range(300):
            key = bytes(rng.randrange(4) for _ in range(width_bytes))
            expected = next(
                (p for p in sorted(stored, key=len) if key[: len(p)] == p), None
            )
            assert trie.match_prefix_of(key) == expected
        top = (1 << (8 * width_bytes)) - 1
        stored_list = sorted(stored)
        for iteration in range(200):
            if iteration % 2:
                lo_int = rng.randrange(top)
            else:
                # Anchor near a stored prefix interval to exercise positives.
                anchor = rng.choice(stored_list)
                base = int.from_bytes(
                    anchor.ljust(width_bytes, b"\x00"), "big"
                )
                lo_int = max(0, min(top - 1, base + rng.randrange(-1024, 1024)))
            hi_int = min(top, lo_int + rng.randrange(1, 2048))
            lo = lo_int.to_bytes(width_bytes, "big")
            hi = hi_int.to_bytes(width_bytes, "big")
            expected = any(
                covers(v.to_bytes(width_bytes, "big"))
                for v in range(lo_int, hi_int + 1)
            )
            assert trie.range_overlaps(lo, hi) == expected

    def test_unsorted_insert_prunes_covered_leaves(self):
        # Regression: inserting a prefix *above* existing longer leaves must
        # discard them from num_leaves/height, not just detach them.
        trie = ByteTrie([b"ab", b"ax", b"b"])
        assert trie.num_leaves == 3
        assert trie.height == 2
        trie.insert(b"a")
        assert sorted(trie.leaves()) == [b"a", b"b"]
        assert trie.num_leaves == 2
        assert trie.height == 1

    def test_duplicate_insert_not_double_counted(self):
        trie = ByteTrie([b"abc"])
        trie.insert(b"abc")
        assert trie.num_leaves == 1

    def test_covered_insert_is_dropped(self):
        trie = ByteTrie([b"a"])
        trie.insert(b"abc")
        assert sorted(trie.leaves()) == [b"a"]
        assert trie.num_leaves == 1
        assert trie.height == 1

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            ByteTrie([b""])

    def test_level_accounting(self):
        trie = ByteTrie([b"aa", b"ab", b"b"])
        assert trie.edges_per_level() == [2, 2]
        assert len(trie) == 3


class TestRankSelectBitVector:
    def test_rank_select_brute_force(self):
        rng = random.Random(22)
        bits = [rng.random() < 0.4 for _ in range(1500)]
        vector = RankSelectBitVector(bits)
        prefix_ones = 0
        positions = []
        for index, bit in enumerate(bits):
            assert vector.rank1(index) == prefix_ones
            assert vector.rank0(index) == index - prefix_ones
            if bit:
                prefix_ones += 1
                positions.append(index)
        assert vector.count_ones() == prefix_ones
        for rank, position in enumerate(positions, start=1):
            assert vector.select1(rank) == position
        with pytest.raises(ValueError):
            vector.select1(0)
        with pytest.raises(ValueError):
            vector.select1(prefix_ones + 1)


class TestSortedPrefixIndex:
    def test_contains_and_overlaps_brute_force(self):
        rng = random.Random(23)
        width, length = 16, 6
        keys = rng.sample(range(1 << width), 400)
        index = SortedPrefixIndex.from_keys(keys, length, width)
        stored = {k >> (width - length) for k in keys}
        assert len(index) == len(stored)
        every_prefix = np.arange(1 << length, dtype=np.int64)
        assert index.contains_many(every_prefix).tolist() == [
            prefix in stored for prefix in range(1 << length)
        ]
        los, his = [], []
        for _ in range(300):
            lo = rng.randrange(1 << width)
            los.append(lo)
            his.append(min((1 << width) - 1, lo + rng.randrange(1, 5000)))
        expected = [
            any(lo >> (width - length) <= p <= hi >> (width - length) for p in stored)
            for lo, hi in zip(los, his)
        ]
        assert index.overlaps_many(
            np.array(los, dtype=np.int64), np.array(his, dtype=np.int64)
        ).tolist() == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            SortedPrefixIndex([4], length=2, width=8)  # 4 needs 3 bits
        with pytest.raises(ValueError):
            SortedPrefixIndex([0], length=0, width=8)
        assert not hasattr(SortedPrefixIndex([0], length=2, width=8), "prefixes")


class TestSizeModels:
    def test_binary_trie_size_monotone(self):
        counts = [1, 2, 4, 8, 16, 20, 20, 20]
        sizes = [binary_trie_size_estimate(counts, d) for d in range(len(counts))]
        assert sizes[0] == 0
        assert sizes == sorted(sizes)
        assert sizes[3] == 2 * (1 + 2 + 4)
        with pytest.raises(ValueError):
            binary_trie_size_estimate(counts, len(counts))

    def test_fst_size_picks_cheaper_encoding_per_level(self):
        # A level with 1 node and 200 edges: dense (512) beats sparse (2000).
        # A level with 100 nodes and 120 edges: sparse (1200) beats dense.
        assert fst_size_estimate([200, 120], [1, 100]) == 512 + 1200
        assert louds_dense_level_bits(1) == 512
        assert louds_sparse_level_bits(3) == 30
