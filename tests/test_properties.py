"""Seeded randomized property suite for the key/batch/merge substrate.

Every test here is a property checked over hundreds of *randomly
generated* inputs (no hand-picked cases) with fixed seeds, so the suite
is deterministic yet covers input shapes no example-based test would
enumerate: duplicate-heavy int lists, mixed ``str``/``bytes`` keys with
embedded and trailing nulls, runs whose key ranges interleave, slices
taken at every boundary.  The invariants pinned:

* :func:`~repro.workloads.batch.coerce_keys` always yields a sorted,
  distinct, round-trippable :class:`~repro.workloads.keyset.KeySet`
  equal to the sorted-set of its input, for int, ``bytes`` and ``str``
  inputs alike;
* :func:`~repro.workloads.batch.coerce_query_batch` preserves pairs
  verbatim and rejects inverted/out-of-space ranges;
* :func:`~repro.lsm.merge.merge_entry_runs` (int64 + byte fast paths)
  agrees entry-for-entry with the ``merge_entry_runs_scalar`` heap-merge
  reference in ``tests/scalar_reference.py``, for every tombstone pattern
  and ``drop_tombstones`` flag;
* ``ByteKeySet.slice`` / ``sorted_take`` agree with plain python list
  slicing/selection while aliasing (slice) the parent buffers;
* filters never produce a false negative against the
  :class:`~repro.filters.base.TrieOracle`, and their batched entry
  points agree with their scalar ones query-for-query.
"""

import random

import numpy as np
import pytest

from repro.api import FilterSpec, Workload, build_filter
from repro.filters.base import TrieOracle
from repro.lsm.merge import EntryRun, merge_entry_runs
from repro.workloads.batch import (
    EncodedKeySet,
    QueryBatch,
    coerce_keys,
    coerce_query_batch,
)
from repro.workloads.bytekeys import ByteKeySet
from scalar_reference import merge_entry_runs_scalar

WIDTH = 32
NUM_TRIALS = 40  # trials per property; each trial draws a fresh input


def _random_int_keys(rng, size, width=WIDTH):
    """Duplicate-heavy unsorted int draw (duplicates stress dedupe paths)."""
    top = 1 << width
    pool = [rng.randrange(top) for _ in range(max(1, size // 2))]
    return [rng.choice(pool) if rng.random() < 0.4 else rng.randrange(top)
            for _ in range(size)]


def _random_byte_keys(rng, size, max_length=WIDTH // 8):
    """Unsorted byte/str mix with embedded nulls and shared prefixes."""
    alphabet = [b"a", b"b", b"\x00", b"z", b"\xff"]
    keys = []
    for _ in range(size):
        length = rng.randrange(1, max_length + 1)
        raw = b"".join(rng.choice(alphabet) for _ in range(length))
        # Trailing nulls are canonicalised away; sometimes hand one in to
        # check the cleaner, sometimes pass the str form.
        if rng.random() < 0.3:
            raw += b"\x00"
        if rng.random() < 0.3 and all(b < 0x80 for b in raw):
            keys.append(raw.rstrip(b"\x00").decode("ascii"))
        else:
            keys.append(raw)
    return keys


def _canonical_bytes(key):
    if isinstance(key, str):
        key = key.encode("utf-8")
    return key.rstrip(b"\x00")


# --------------------------------------------------------------------- #
# coerce_keys                                                           #
# --------------------------------------------------------------------- #


def test_coerce_keys_int_sorted_distinct_roundtrip():
    rng = random.Random(0xC0E1)
    for trial in range(NUM_TRIALS):
        raw = _random_int_keys(rng, rng.randrange(1, 400))
        key_set = coerce_keys(raw, WIDTH)
        expected = sorted(set(raw))
        assert isinstance(key_set, EncodedKeySet)
        assert key_set.as_list() == expected, f"trial {trial}"
        arr = key_set.keys
        assert (arr[1:] > arr[:-1]).all()  # strictly sorted = distinct


def test_coerce_keys_bytes_sorted_distinct_roundtrip():
    rng = random.Random(0xB17E)
    for trial in range(NUM_TRIALS):
        raw = _random_byte_keys(rng, rng.randrange(1, 300))
        key_set = coerce_keys(raw, WIDTH)
        expected = sorted({_canonical_bytes(key) for key in raw})
        assert isinstance(key_set, ByteKeySet)
        assert key_set.as_list() == expected, f"trial {trial}"
        padded = key_set.keys
        assert (padded[1:] > padded[:-1]).all()


def test_coerce_keys_keyset_passthrough_is_identity():
    rng = random.Random(0x1D)
    for _ in range(10):
        key_set = coerce_keys(_random_int_keys(rng, 50), WIDTH)
        assert coerce_keys(key_set, WIDTH) is key_set
        assert coerce_keys(key_set) is key_set
        with pytest.raises(ValueError, match="width"):
            coerce_keys(key_set, WIDTH * 2)


# --------------------------------------------------------------------- #
# coerce_query_batch                                                    #
# --------------------------------------------------------------------- #


def test_coerce_query_batch_preserves_pairs_verbatim():
    rng = random.Random(0x9A7C)
    top = 1 << WIDTH
    for trial in range(NUM_TRIALS):
        pairs = []
        for _ in range(rng.randrange(1, 200)):
            lo = rng.randrange(top)
            hi = min(top - 1, lo + rng.randrange(1024))
            pairs.append((lo, hi))
        batch = coerce_query_batch(pairs, WIDTH)
        assert isinstance(batch, QueryBatch)
        assert list(batch.pairs()) == pairs, f"trial {trial}"


def test_coerce_query_batch_rejects_bad_ranges():
    rng = random.Random(0xBAD)
    top = 1 << WIDTH
    for _ in range(NUM_TRIALS):
        good = [(5, 10)] * rng.randrange(0, 5)
        position = rng.randrange(len(good) + 1)
        if rng.random() < 0.5:
            lo = rng.randrange(1, top)
            bad = (lo, lo - rng.randrange(1, lo + 1))  # inverted
        else:
            bad = (rng.randrange(top), top + rng.randrange(1 << 8))  # too wide
        with pytest.raises(ValueError):
            coerce_query_batch(good[:position] + [bad] + good[position:], WIDTH)


# --------------------------------------------------------------------- #
# merge_entry_runs vs the scalar heap-merge reference                   #
# --------------------------------------------------------------------- #


def _random_runs(rng, make_keys, num_runs):
    runs = []
    for _ in range(num_runs):
        key_set = coerce_keys(make_keys(rng, rng.randrange(1, 120)), WIDTH)
        tombstones = None
        if rng.random() < 0.7:
            tombstones = np.array(
                [rng.random() < 0.3 for _ in range(len(key_set))], dtype=bool
            )
            if not tombstones.any():
                tombstones = None
        runs.append(EntryRun(key_set, tombstones))
    return runs


@pytest.mark.parametrize("make_keys", [_random_int_keys, _random_byte_keys],
                         ids=["int", "bytes"])
@pytest.mark.parametrize("drop_tombstones", [False, True])
def test_merge_entry_runs_matches_scalar_reference(make_keys, drop_tombstones):
    rng = random.Random(0x3E6E)
    for trial in range(NUM_TRIALS):
        runs = _random_runs(rng, make_keys, rng.randrange(1, 6))
        fast = merge_entry_runs(runs, drop_tombstones=drop_tombstones)
        reference = merge_entry_runs_scalar(runs, drop_tombstones=drop_tombstones)
        assert fast.keys.as_list() == reference.keys.as_list(), f"trial {trial}"
        assert (fast.tombstone_mask() == reference.tombstone_mask()).all()


def test_merge_entry_runs_newest_wins():
    """The first run shadows every later run on shared keys."""
    rng = random.Random(0x11EA)
    for _ in range(NUM_TRIALS):
        shared = sorted(set(_random_int_keys(rng, 60)))
        newest = EntryRun(
            coerce_keys(shared, WIDTH),
            np.array([rng.random() < 0.5 for _ in shared], dtype=bool),
        )
        older = EntryRun(coerce_keys(shared, WIDTH))  # all live
        merged = merge_entry_runs([newest, older])
        assert merged.keys.as_list() == shared
        assert (merged.tombstone_mask() == newest.tombstone_mask()).all()


# --------------------------------------------------------------------- #
# ByteKeySet.slice / sorted_take                                        #
# --------------------------------------------------------------------- #


def test_byte_key_set_slice_matches_list_slicing_and_aliases():
    rng = random.Random(0x51C3)
    for trial in range(NUM_TRIALS):
        key_set = coerce_keys(_random_byte_keys(rng, rng.randrange(2, 200)), WIDTH)
        as_list = key_set.as_list()
        start = rng.randrange(len(key_set))
        stop = rng.randrange(start, len(key_set) + 1)
        window = key_set.slice(start, stop)
        assert window.as_list() == as_list[start:stop], f"trial {trial}"
        # The aliasing contract: the slice's padded view shares the
        # parent's memory (zero-copy — what SSTables and shards rely on).
        if len(window):
            assert np.shares_memory(window.keys, key_set.keys)


def test_byte_key_set_sorted_take_matches_list_selection():
    rng = random.Random(0x7A6E)
    for trial in range(NUM_TRIALS):
        key_set = coerce_keys(_random_byte_keys(rng, rng.randrange(2, 200)), WIDTH)
        as_list = key_set.as_list()
        size = rng.randrange(1, len(key_set) + 1)
        indices = np.array(rng.sample(range(len(key_set)), size), dtype=np.int64)
        taken = key_set.sorted_take(indices)
        assert taken.as_list() == sorted(as_list[i] for i in indices), f"trial {trial}"


# --------------------------------------------------------------------- #
# zero false negatives + scalar/batch parity                            #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("family", ["bloom", "prefix_bloom", "proteus"])
def test_filters_zero_false_negatives_vs_oracle(family):
    rng = random.Random(0xFB + hash(family) % 1000)
    for trial in range(6):
        keys = sorted(set(_random_int_keys(rng, 400)))
        queries = []
        for _ in range(150):
            lo = rng.randrange(1 << WIDTH)
            hi = min((1 << WIDTH) - 1, lo + rng.randrange(512))
            queries.append((lo, hi))
        workload = Workload(coerce_keys(keys, WIDTH), queries)
        filt = build_filter(FilterSpec(family, 12.0), workload.keys, workload)
        oracle = TrieOracle(keys, WIDTH)
        probes = keys[:50] + [rng.randrange(1 << WIDTH) for _ in range(100)]
        truth_points = oracle.may_contain_many(np.array(probes, dtype=np.int64))
        answer_points = filt.may_contain_many(np.array(probes, dtype=np.int64))
        assert not (truth_points & ~answer_points).any(), f"trial {trial}"
        truth_ranges = oracle.may_intersect_many(queries)
        answer_ranges = filt.may_intersect_many(queries)
        assert not (truth_ranges & ~answer_ranges).any(), f"trial {trial}"
        # Scalar-vs-batch parity on the same draws.
        assert [filt.may_contain(p) for p in probes] == answer_points.tolist()
        assert [
            filt.may_intersect(lo, hi) for lo, hi in queries
        ] == answer_ranges.tolist()
