"""ByteKeySet / ByteQueryBatch: the variable-length byte-string key path.

Four layers of guarantees are pinned here:

* **representation** — ByteKeySet canonicalisation (utf-8, trailing-null
  strip, sort + dedupe), the arrow-style flat layout, zero-copy slicing,
  and agreement between the padded ``S``-dtype order and the padded
  big-endian integer order the scalar filters use;
* **coercion** — ``coerce_keys`` / ``coerce_query_batch`` dispatch byte
  inputs to the byte types and integer inputs to the encoded types, with
  the same validation errors either way;
* **filters** — every registry family built on a byte-string workload has
  zero false negatives against the exact oracle (the acceptance criterion
  of the KeySet redesign);
* **LSM** — the static and online trees run variable-length byte keys end
  to end: fence pruning, per-SST filters, merge parity, and newest-wins
  lookup semantics.
"""

import random

import numpy as np
import pytest

from repro.api import FilterSpec, Workload, build_filter
from repro.filters.base import TrieOracle
from repro.filters.prefix_bloom import derived_prefix_len
from repro.workloads.batch import (
    EncodedKeySet,
    QueryBatch,
    coerce_keys,
    coerce_query_batch,
)
from repro.workloads.bytekeys import ByteKeySet, ByteQueryBatch


def _random_words(rng, count, max_len=12):
    alphabet = b"abcdefgh"
    words = set()
    while len(words) < count:
        length = rng.randrange(1, max_len + 1)
        words.add(bytes(alphabet[rng.randrange(len(alphabet))] for _ in range(length)))
    return sorted(words)


def _padded_int(key: bytes, max_length: int) -> int:
    return int.from_bytes(key.ljust(max_length, b"\x00"), "big")


class TestByteKeySetRepresentation:
    def test_canonicalisation_sort_dedupe(self):
        ks = ByteKeySet(["abc", b"abc\x00\x00", b"zz", "abc", b"a"])
        assert ks.as_list() == [b"a", b"abc", b"zz"]
        assert ks.max_length == 3 and ks.width == 24
        assert ks.first == b"a" and ks.last == b"zz"
        assert ks.is_bytes and ks.keys.dtype == "S3"

    def test_interior_nulls_survive(self):
        ks = ByteKeySet([b"a\x00b", b"a"])
        assert ks.as_list() == [b"a", b"a\x00b"]
        assert ks.key_at(1) == b"a\x00b"

    def test_max_length_validation(self):
        with pytest.raises(ValueError, match="exceeds maximum"):
            ByteKeySet([b"toolong"], max_length=3)
        with pytest.raises(ValueError, match="must be positive"):
            ByteKeySet([b"a"], max_length=0)

    def test_order_matches_padded_integer_order(self):
        # The load-bearing equivalence: memcmp order of the null-padded
        # S-dtype view == big-endian padded-integer order.
        rng = random.Random(11)
        words = _random_words(rng, 300)
        ks = ByteKeySet(words)
        ints = [_padded_int(key, ks.max_length) for key in ks.as_list()]
        assert ints == sorted(ints)
        assert [_padded_int(key, ks.max_length) for key in ks.keys.tolist()] == ints

    def test_flat_buffer_and_offsets(self):
        ks = ByteKeySet([b"bb", b"a", b"ccc"])
        assert ks.buffer.tobytes() == b"abbccc"
        assert ks.offsets.tolist() == [0, 1, 3, 6]
        assert [ks.key_at(i) for i in range(3)] == [b"a", b"bb", b"ccc"]

    def test_slice_is_zero_copy(self):
        rng = random.Random(12)
        ks = ByteKeySet(_random_words(rng, 64))
        sub = ks.slice(10, 30)
        assert len(sub) == 20
        assert sub.as_list() == ks.as_list()[10:30]
        assert np.shares_memory(sub.buffer, ks.buffer)
        assert np.shares_memory(sub.keys, ks.keys)
        with pytest.raises(ValueError, match="outside the key set"):
            ks.slice(5, 100)

    def test_sorted_take_rebuilds_compact_set(self):
        rng = random.Random(13)
        ks = ByteKeySet(_random_words(rng, 100))
        indices = np.array([7, 3, 50, 21], dtype=np.int64)
        sub = ks.sorted_take(indices)
        expected = sorted(ks.as_list()[i] for i in (7, 3, 50, 21))
        assert sub.as_list() == expected
        assert sub.max_length == ks.max_length
        # The rebuilt buffer is compact: exactly the chosen keys' bytes.
        assert sub.buffer.size == sum(len(key) for key in expected)

    def test_prefixes_match_brute_force(self):
        rng = random.Random(14)
        words = _random_words(rng, 120, max_len=6)
        ks = ByteKeySet(words)
        for bits in (0, 3, 8, 13, 24, ks.width):
            got = {row.tobytes() for row in ks.prefixes(bits)}
            nbytes = (bits + 7) // 8
            drop = 8 * nbytes - bits
            expected = set()
            for key in words:
                value = int.from_bytes(
                    key.ljust(ks.max_length, b"\x00")[:nbytes], "big"
                )
                expected.add(((value >> drop) << drop).to_bytes(nbytes, "big"))
            if bits == 0:
                expected = {b""}
            assert got == expected, bits
        with pytest.raises(ValueError):
            ks.prefixes(ks.width + 1)

    def test_prefix_counts_match_brute_force(self):
        rng = random.Random(15)
        words = _random_words(rng, 80, max_len=4)
        ks = ByteKeySet(words)
        counts = ks.prefix_counts()
        ints = [_padded_int(key, ks.max_length) for key in words]
        for bits in range(ks.width + 1):
            shift = ks.width - bits
            assert counts[bits] == len({value >> shift for value in ints}), bits


class TestCoercion:
    def test_byte_inputs_dispatch_to_byte_types(self):
        ks = coerce_keys([b"pear", "apple", b"fig"], None)
        assert isinstance(ks, ByteKeySet)
        assert ks.as_list() == [b"apple", b"fig", b"pear"]
        batch = coerce_query_batch([(b"a", b"b"), (b"p", b"q")], ks.width)
        assert isinstance(batch, ByteQueryBatch)
        assert batch.los.dtype.kind == "S"

    def test_integer_inputs_keep_encoded_types(self):
        ks = coerce_keys([5, 2, 9], 16)
        assert isinstance(ks, EncodedKeySet) and not ks.is_bytes
        batch = coerce_query_batch([(1, 4)], 16)
        assert isinstance(batch, QueryBatch)
        assert not isinstance(batch, ByteQueryBatch)

    def test_keyset_passthrough(self):
        ks = ByteKeySet([b"x", b"yy"])
        assert coerce_keys(ks, ks.width) is ks

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coerce_keys([b"overlong-key"], 16)  # 12 bytes into a 2-byte space


class TestByteQueryBatch:
    def test_pairs_yield_padded_integers(self):
        batch = ByteQueryBatch([b"a", b"x"], [b"b", b"xy"], max_length=2)
        assert list(batch.pairs()) == [
            (_padded_int(b"a", 2), _padded_int(b"b", 2)),
            (_padded_int(b"x", 2), _padded_int(b"xy", 2)),
        ]
        assert list(batch.byte_pairs()) == [(b"a", b"b"), (b"x", b"xy")]
        # The fixed PBF sizes its slots to the widest padded-integer span.
        span = max(
            _padded_int(b"b", 2) - _padded_int(b"a", 2),
            _padded_int(b"xy", 2) - _padded_int(b"x", 2),
        )
        workload = Workload(ByteKeySet([b"m"], max_length=2), batch)
        assert derived_prefix_len(16, workload) == 16 - span.bit_length()

    def test_points_and_select(self):
        batch = ByteQueryBatch.points([b"q", b"rr", b"s"], max_length=2)
        assert list(batch.byte_pairs()) == [(b"q", b"q"), (b"rr", b"rr"), (b"s", b"s")]
        sub = batch.select(np.array([2, 0]))
        assert isinstance(sub, ByteQueryBatch)
        assert sub.max_length == 2
        assert list(sub.byte_pairs()) == [(b"s", b"s"), (b"q", b"q")]

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="empty query range"):
            ByteQueryBatch([b"z"], [b"a"], max_length=2)
        with pytest.raises(ValueError, match="outside the .*key space"):
            ByteQueryBatch([b"toolong"], [b"z"], max_length=2)


class TestByteWorkloadFilters:
    @pytest.fixture(scope="class")
    def string_workload(self):
        rng = random.Random(21)
        words = _random_words(rng, 600, max_len=10)
        queries = []
        for _ in range(300):
            a = rng.choice(words)
            if rng.random() < 0.4:
                # Keep prefix + b"\xff" inside the 10-byte space.
                prefix = a[: rng.randrange(1, min(len(a), 9) + 1)]
                queries.append((prefix, prefix + b"\xff"))
            else:
                b = rng.choice(words)
                lo, hi = sorted((a, b))
                queries.append((lo, hi))
        workload = Workload(words, queries)
        # Held-out probes: real keys (must hit) + perturbed keys (mostly miss).
        probes = rng.sample(words, 100) + [
            word[:-1] + b"z" for word in rng.sample(words, 100)
        ]
        eval_batch = coerce_query_batch(
            [(probe, probe) for probe in probes], workload.width
        )
        return workload, eval_batch

    def test_workload_attaches_string_space(self, string_workload):
        # Byte keys carry their own space: the queries take the keys'
        # representation, padded big-endian integer bounds included.
        workload, _ = string_workload
        assert isinstance(workload.keys, ByteKeySet)
        assert isinstance(workload.queries, ByteQueryBatch)
        assert workload.queries.width == workload.width
        padded = Workload(workload.keys, list(workload.queries.pairs()))
        assert isinstance(padded.queries, ByteQueryBatch)
        assert padded.queries.los.tolist() == workload.queries.los.tolist()
        assert padded.queries.his.tolist() == workload.queries.his.tolist()

    @pytest.mark.parametrize(
        "family", ["prefix_bloom", "surf", "rosetta", "1pbf", "2pbf", "proteus"]
    )
    def test_zero_false_negatives_every_family(self, family, string_workload):
        workload, eval_batch = string_workload
        filt = build_filter(FilterSpec(family, 14.0), workload.keys, workload)
        oracle = TrieOracle(workload.keys.keys, workload.width)
        for batch in (workload.queries, eval_batch):
            truth = oracle.may_intersect_many(batch)
            answers = filt.may_intersect_many(batch)
            assert not (~answers & truth).any(), family
        # Every key is a batch-positive point probe as raw bytes.
        assert filt.may_contain_many(workload.keys).all(), family


class TestByteLSM:
    def test_build_requires_a_keyset(self):
        from repro.lsm.tree import LSMTree

        with pytest.raises(TypeError, match="KeySet"):
            LSMTree.build([b"a", b"b"])

    def test_static_tree_end_to_end(self):
        from repro.lsm.tree import LSMTree

        rng = random.Random(22)
        words = _random_words(rng, 1200, max_len=9)
        keys = ByteKeySet(words)
        tree = LSMTree.build(keys, sst_keys=128, seed=5)
        assert tree.width == keys.width
        design = coerce_query_batch(
            [
                tuple(sorted((rng.choice(words), rng.choice(words))))
                for _ in range(200)
            ],
            keys.width,
        )
        tree.attach_filters(
            FilterSpec("proteus", 12.0), Workload(keys, design)
        )
        probes = ByteQueryBatch.points(
            rng.sample(words, 150) + [w[:-1] + b"\xff" for w in rng.sample(words, 150)],
            keys.max_length,
        )
        result = tree.probe(probes)
        assert int(result.missed_reads.sum()) == 0
        # Every SST's fences are native byte scalars in padded order.
        for level in tree.levels:
            for sst in level:
                assert isinstance(sst.min_key, bytes)
                assert sst.min_key <= sst.max_key

    def test_online_tree_newest_wins_lookup(self):
        from repro.lsm.online import OnlineLSMTree

        rng = random.Random(23)
        words = _random_words(rng, 400, max_len=8)
        width = 8 * 8
        tree = OnlineLSMTree(
            width,
            spec=FilterSpec("prefix_bloom", 12.0),
            sst_keys=64,
            memtable_capacity=64,
        )
        live = set()
        for _ in range(1500):
            word = rng.choice(words)
            if rng.random() < 0.25:
                tree.delete(word)
                live.discard(word)
            else:
                tree.put(word)
                live.add(word)
        tree.flush()
        answers = tree.lookup_many(words)
        assert answers.tolist() == [word in live for word in words]
        # Probe accounting over the snapshot: filters never drop a match.
        probes = ByteQueryBatch.points(words, 8)
        assert int(tree.probe(probes).missed_reads.sum()) == 0

    def test_memtable_canonicalises_and_validates(self):
        from repro.lsm.memtable import MemTable

        table = MemTable(width=32, capacity=8)
        table.put("abc")  # str: utf-8 encoded
        table.put(b"abc\x00")  # trailing nulls: canonicalised to b"abc"
        table.delete(b"zz")
        run = table.seal()
        assert run.keys.as_list() == [b"abc", b"zz"]
        assert run.tombstone_mask().tolist() == [False, True]
        with pytest.raises(ValueError):
            table.put(b"five!")  # 5 bytes > 32-bit space

    @pytest.mark.parametrize("drop", [False, True])
    def test_byte_merge_matches_scalar_reference(self, drop):
        from repro.lsm.merge import EntryRun, merge_entry_runs
        from scalar_reference import merge_entry_runs_scalar

        rng = random.Random(24)
        runs = []
        for _ in range(4):
            words = _random_words(rng, rng.randrange(20, 120), max_len=6)
            tombstones = np.array([rng.random() < 0.3 for _ in words])
            runs.append(EntryRun(ByteKeySet(words, max_length=6), tombstones))
        fast = merge_entry_runs(runs, drop_tombstones=drop)
        slow = merge_entry_runs_scalar(runs, drop_tombstones=drop)
        assert fast.keys.as_list() == slow.keys.as_list()
        assert fast.tombstone_mask().tolist() == slow.tombstone_mask().tolist()
        assert isinstance(fast.keys, ByteKeySet)
