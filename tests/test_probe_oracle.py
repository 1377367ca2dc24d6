"""``LSMTree.probe`` pinned to the per-SST-group reference loop.

The production probe classifies each level's routed (query, SST) pairs
once and derives every tally — the six per-query arrays, ``per_level``,
the optional per-SST stats and the trace — from ``np.bincount``
histograms of the classification codes.  :func:`reference_probe` below is
the straightforward form it replaced: one Python iteration per routed SST
group, tallying each field with its own numpy calls.  The two must agree
exactly on every field, for every key representation (int64, >63-bit
object-dtype, byte strings), for filtered, unfiltered and mixed trees, on
online snapshots with tombstones and an empty middle level, on empty
batches, and on ranges that straddle SST fences.

The "mixed" trees include a deliberately wrong filter (a keyed coin flip)
next to Bloom filters and unfiltered SSTs, so all four (positive, truth)
classes — missed reads included — occur and are compared.
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import FilterSpec, build_filter
from repro.filters.base import ragged_ranges
from repro.lsm.cost import ProbeResult, SstStats
from repro.lsm.online import OnlineLSMTree
from repro.lsm.tree import LSMTree
from repro.obs.trace import TRACE_FIELDS, ProbeEvent, ProbeTrace
from repro.workloads.batch import coerce_keys, coerce_query_batch

# --------------------------------------------------------------------- #
# The reference: one iteration per routed SST group                     #
# --------------------------------------------------------------------- #


def reference_probe(tree, queries, sst_stats=None):
    """Return ``(ProbeResult, events, totals)`` from the per-group loop.

    ``events`` lists every routed pair as a :class:`ProbeEvent` in probe
    order (level, then SST, then query) and ``totals`` sums them per
    accounting field — what a :class:`ProbeTrace` of unbounded capacity
    would hold.
    """
    batch = coerce_query_batch(queries, tree.width)
    result = ProbeResult.zeros(len(batch), len(tree.levels))
    events: list[ProbeEvent] = []
    totals = dict.fromkeys(TRACE_FIELDS, 0)
    if len(batch) == 0:
        return result, events, totals
    for level_index, level in enumerate(tree.levels):
        stats = result.per_level[level_index]
        mins, maxs = tree._fences[level_index]
        first = np.searchsorted(maxs, batch.los, side="left")
        last = np.searchsorted(mins, batch.his, side="right")
        active = last > first
        if not active.any():
            continue
        active_queries = np.nonzero(active)[0]
        lengths = (last - first)[active]
        flat_sst, _ = ragged_ranges(first[active], lengths)
        flat_query = np.repeat(active_queries, lengths)
        order = np.argsort(flat_sst, kind="stable")
        flat_sst = flat_sst[order]
        flat_query = flat_query[order]
        boundaries = np.nonzero(np.diff(flat_sst))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [flat_sst.size]])
        for start, end in zip(starts, ends):
            sst_index = int(flat_sst[start])
            sst = level[sst_index]
            query_indices = flat_query[start:end]
            sub = batch.select(query_indices)
            truth = sst.matches_many(sub.los, sub.his)
            positives = sst.probe_many(sub)
            filtered = sst.filter is not None
            count = int(query_indices.size)
            fields = {
                "candidates": count,
                "filter_probes": count if filtered else 0,
                "blocks_read": int(positives.sum()),
                "required_reads": int(truth.sum()),
                "false_positive_reads": int((positives & ~truth).sum()),
                "missed_reads": int((truth & ~positives).sum()),
            }
            result.candidates[query_indices] += 1
            if filtered:
                result.filter_probes[query_indices] += 1
            result.blocks_read[query_indices] += positives
            result.required_reads[query_indices] += truth
            result.false_positive_reads[query_indices] += positives & ~truth
            result.missed_reads[query_indices] += truth & ~positives
            for name, value in fields.items():
                setattr(stats, name, getattr(stats, name) + value)
                totals[name] += value
            if sst_stats is not None:
                sst_stats.setdefault(sst, SstStats()).add(*fields.values())
            for query, positive, matched in zip(
                query_indices.tolist(), positives.tolist(), truth.tolist()
            ):
                events.append(
                    ProbeEvent(query, level_index, sst_index, filtered, positive, matched)
                )
    return result, events, totals


# --------------------------------------------------------------------- #
# Trees and queries                                                     #
# --------------------------------------------------------------------- #


class CoinFlipFilter:
    """A wrong filter: a keyed hash of each bound pair decides the verdict.

    It answers False on ranges that do hold keys, so probes against it
    produce missed reads — the case a correct filter never exercises.
    """

    def __init__(self, width: int, salt: int):
        self.width = width
        self.salt = salt

    def may_intersect_many(self, batch):
        pairs = zip(batch.los.tolist(), batch.his.tolist())
        return np.array(
            [zlib.crc32(repr((self.salt, lo, hi)).encode()) & 1 for lo, hi in pairs],
            dtype=bool,
        )

    def size_in_bits(self) -> int:
        return 0


def attach(tree: LSMTree, mode: str, seed: int) -> LSMTree:
    """Give every SST a filter ("filtered"), none, or a random mix."""
    rng = random.Random(seed)
    for sst in tree.sstables():
        choice = {"filtered": "bloom", "unfiltered": "none"}.get(mode)
        if choice is None:
            choice = rng.choice(["bloom", "none", "coin"])
        if choice == "bloom":
            sst.attach_filter(build_filter(FilterSpec("bloom", 8.0), sst.keys))
        elif choice == "coin":
            sst.attach_filter(CoinFlipFilter(sst.width, rng.randrange(1 << 30)))
        else:
            sst.clear_filter()
    return tree


#: Integer key widths: the int64 fast path and the object-dtype fallback.
INT_WIDTHS = {"int64": 16, "wide": 72}


def int_pairs(rng: random.Random, keys: list[int], fences: list[int], width: int, count: int):
    """Points, short ranges near keys, fence straddlers and wide ranges."""
    top = (1 << width) - 1
    pairs = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            key = rng.choice(keys) + rng.choice([-1, 0, 0, 1])
            key = min(max(key, 0), top)
            pairs.append((key, key))
        elif kind == 1:
            lo = min(max(rng.choice(keys) - rng.randrange(4), 0), top)
            pairs.append((lo, min(lo + rng.randrange(8), top)))
        elif kind == 2:
            # Straddle a fence: start just below one, end just above it.
            fence = rng.choice(fences)
            lo = max(fence - rng.randrange(1, 6), 0)
            pairs.append((lo, min(fence + rng.randrange(0, 6), top)))
        else:
            lo = rng.randrange(top + 1)
            pairs.append((lo, min(lo + rng.randrange(1 << (width // 2)), top)))
    return pairs


def byte_pairs(rng: random.Random, keys: list[bytes], length: int, count: int):
    """Byte-string points, prefix ranges and ranges from one key to another."""
    pairs = []
    for _ in range(count):
        kind = rng.randrange(3)
        a, b = sorted(rng.sample(keys, 2)) if len(keys) > 1 else (keys[0], keys[0])
        if kind == 0:
            pairs.append((a, a))
        elif kind == 1:
            prefix = a[: rng.randrange(1, len(a) + 1)]
            pairs.append((prefix, (prefix + b"\xff" * length)[:length]))
        else:
            pairs.append((a[:-1] or a, b))
    return pairs


def build_tree(kind: str, mode: str, seed: int, num_keys: int, sst_keys: int):
    """A seeded static tree plus a query generator over its key space."""
    rng = random.Random(seed)
    if kind == "bytes":
        alphabet = b"abcxyz"
        keys = sorted(
            {
                bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 5)))
                for _ in range(num_keys)
            }
        )
        tree = LSMTree.build(coerce_keys(keys), sst_keys=sst_keys, fanout=2, seed=seed)
        length = tree.width // 8

        def queries(qrng, count):
            return byte_pairs(qrng, keys, length, count)

    else:
        width = INT_WIDTHS[kind]
        top = 1 << width
        keys = sorted(set(rng.randrange(top) for _ in range(num_keys)))
        tree = LSMTree.build(coerce_keys(keys, width), sst_keys=sst_keys, fanout=2, seed=seed)
        fences = [int(f) for sst in tree.sstables() for f in (sst.min_key, sst.max_key)]

        def queries(qrng, count):
            return int_pairs(qrng, keys, fences, width, count)

    return attach(tree, mode, seed), queries


@pytest.fixture(scope="module")
def snapshot():
    """A churned online tree's snapshot (tombstones, an empty middle level)."""
    tree = OnlineLSMTree(16, spec=FilterSpec("bloom", 8.0), sst_keys=8, fanout=2, level0_runs=1)
    rng = random.Random(9)
    keys = rng.sample(range(1 << 16), 512)
    for start in range(0, 512, 8):
        tree.apply([("put", key) for key in keys[start : start + 8]])
        tree.apply([("del", key) for key in rng.sample(keys[: start + 8], 2)])
    tree.flush()
    snapshot = tree.snapshot()
    assert any(not level for level in snapshot.levels[1:-1])  # an empty middle level
    assert any(sst.tombstones is not None for sst in snapshot.sstables())
    fences = [int(f) for sst in snapshot.sstables() for f in (sst.min_key, sst.max_key)]
    return snapshot, sorted(keys), fences


# --------------------------------------------------------------------- #
# The comparison                                                        #
# --------------------------------------------------------------------- #

def assert_probe_matches_reference(tree, first_pairs, second_pairs, capacity):
    first = coerce_query_batch(first_pairs, tree.width)
    second = coerce_query_batch(second_pairs, tree.width)
    want_stats: dict = {}
    want, events, totals = reference_probe(tree, first, want_stats)
    reference_probe(tree, second, want_stats)

    got_stats: dict = {}
    trace = ProbeTrace(capacity=capacity)
    got = tree.probe(first, trace=trace, sst_stats=got_stats)
    tree.probe(second, sst_stats=got_stats)

    for name in TRACE_FIELDS:  # the six per-query ProbeResult arrays
        expected = getattr(want, name)
        actual = getattr(got, name)
        assert actual.dtype == np.int64, name
        assert actual.tolist() == expected.tolist(), name
    assert [s.to_dict() for s in got.per_level] == [s.to_dict() for s in want.per_level]
    # Same SSTs, same insertion order, same accumulated counts.
    assert list(got_stats) == list(want_stats)
    assert [s.to_dict() for s in got_stats.values()] == [
        s.to_dict() for s in want_stats.values()
    ]
    assert trace.totals == totals
    assert trace.num_events == len(events)
    assert trace.events() == events[-capacity:]
    assert trace.reconcile(got) == []


KINDS = ("int64", "wide", "bytes")
MODES = ("filtered", "unfiltered", "mixed")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(KINDS),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
    num_keys=st.integers(1, 120),
    sst_keys=st.integers(1, 12),
    first_count=st.integers(0, 40),
    second_count=st.integers(0, 40),
    capacity=st.integers(1, 64),
)
@example(
    kind="int64",
    mode="filtered",
    seed=3,
    num_keys=60,
    sst_keys=4,
    first_count=0,
    second_count=0,
    capacity=8,
)
def test_static_tree_probe_matches_reference(
    kind, mode, seed, num_keys, sst_keys, first_count, second_count, capacity
):
    tree, queries = build_tree(kind, mode, seed, num_keys, sst_keys)
    qrng = random.Random(seed + 1)
    assert_probe_matches_reference(
        tree, queries(qrng, first_count), queries(qrng, second_count), capacity
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
    first_count=st.integers(0, 60),
    second_count=st.integers(0, 60),
    capacity=st.integers(1, 256),
)
def test_online_snapshot_probe_matches_reference(
    snapshot, mode, seed, first_count, second_count, capacity
):
    tree, keys, fences = snapshot
    attach(tree, mode, seed)
    qrng = random.Random(seed)
    first = int_pairs(qrng, keys, fences, tree.width, first_count)
    second = int_pairs(qrng, keys, fences, tree.width, second_count)
    assert_probe_matches_reference(tree, first, second, capacity)

