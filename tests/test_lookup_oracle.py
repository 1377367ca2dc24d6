"""``OnlineLSMTree.lookup_many`` pinned to the per-SST reference loop.

The production lookup answers from the memtable in one dict pass, then
searches each of the tree's runs once: every level-0 SST, then the one
merge output each deep level keeps and its SSTs slice.
:func:`reference_lookup_many` below is the form it replaced: one
``MemTable.get`` per probe, then a bisection of every SST in turn.

Hypothesis drives unfiltered trees through random put, delete and flush
streams on tiny geometry (2–8 keys per SST, 1–3 level-0 runs, fanout 2,
memtables of 1–4 entries), so cascades leave empty middle levels and
tombstones survive above the bottom level.  After every step the lookup
must equal both the reference and a dict model of the stream, and each
deep level's kept run must equal the concatenation of its SSTs' keys and
tombstone masks.  Int keys (32 bits), stored width-64 keys (0, both
sides of ``2**63`` and ``2**64 - 1``), 80-bit integers on the byte path
and byte keys (40 bits) are covered; the probes hold duplicates, keys
never written, keys only the memtable holds and keys deleted then put
again.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.lsm.online import OnlineLSMTree
from repro.workloads.batch import probe_key_array

# --------------------------------------------------------------------- #
# The reference: the memtable key by key, then every SST in turn        #
# --------------------------------------------------------------------- #


def reference_lookup_many(tree: OnlineLSMTree, keys) -> np.ndarray:
    """Newest-wins membership from a per-key memtable walk and per-SST bisection."""
    ssts = tree.sstables()
    expect_bytes: bool | None = None
    if ssts:
        expect_bytes = ssts[0].keys.is_bytes
    else:
        sample = tree.memtable.sample_key()
        if sample is not None:
            expect_bytes = isinstance(sample, bytes)
    keys = list(keys)
    arr = probe_key_array(keys, tree.width, expect_bytes=expect_bytes)
    found = np.zeros(arr.size, dtype=bool)
    resolved = np.zeros(arr.size, dtype=bool)
    for position, key in enumerate(keys):
        state = tree.memtable.get(key)
        if state is not None:
            resolved[position] = True
            found[position] = state
    for sst in ssts:
        unresolved = np.nonzero(~resolved)[0]
        if unresolved.size == 0:
            break
        table = sst.keys.keys
        pos = np.searchsorted(table, arr[unresolved])
        safe = np.minimum(pos, len(table) - 1)
        hit = (pos < len(table)) & np.asarray(table[safe] == arr[unresolved], dtype=bool)
        hit_rows = unresolved[hit]
        if hit_rows.size == 0:
            continue
        resolved[hit_rows] = True
        found[hit_rows] = ~sst.tombstone_mask()[safe[hit]]
    return found


# --------------------------------------------------------------------- #
# Key kinds: a 16-key write pool plus keys that are never written       #
# --------------------------------------------------------------------- #

POOL = 16

#: Width 64: the pool holds 0, 2**64 - 1 and keys on both sides of 2**63;
#: the never-written keys sit next to them.
_HALF = 1 << 63
_POOL_64 = [0, 2**64 - 1] + [_HALF + 1_000_003 * (i - 7) for i in range(POOL - 2)]

KINDS = {
    "int32": (32, [3 + 7919 * i for i in range(POOL + 4)]),
    "int64": (64, _POOL_64 + [1, 2**64 - 2, _HALF - 1, _HALF + 1]),
    "int80": (80, [(1 << 70) + 1_000_003 * i for i in range(POOL + 4)]),
    "bytes40": (
        40,
        [
            b"a", b"ab", b"abc", b"abcde", b"b", b"ba", b"bz", b"c", b"ca", b"m",
            b"mm", b"mmm", b"q", b"x", b"xy", b"zzzzz", b"aa", b"bb", b"n", b"zz",
        ],
    ),
}


def probe_list(keys: list) -> list:
    """Every pool key, the never-written keys, and some duplicates."""
    return keys + keys[:3] + keys[POOL - 2 : POOL]


def check_tree(tree: OnlineLSMTree, model: dict, probes: list) -> None:
    expected = np.array([model.get(key, False) for key in probes], dtype=bool)
    np.testing.assert_array_equal(tree.lookup_many(probes), expected)
    np.testing.assert_array_equal(reference_lookup_many(tree, probes), expected)
    assert len(tree.deep_runs) == len(tree.deep_levels)
    for level, run in zip(tree.deep_levels, tree.deep_runs):
        if not level:
            assert run is None
            continue
        np.testing.assert_array_equal(
            run.keys.keys, np.concatenate([sst.keys.keys for sst in level])
        )
        np.testing.assert_array_equal(
            run.tombstone_mask(), np.concatenate([sst.tombstone_mask() for sst in level])
        )
        assert all(np.shares_memory(sst.keys.keys, run.keys.keys) for sst in level)


def replay(kind: str, geometry: tuple[int, int, int], ops: list) -> None:
    """Apply ``ops`` to a fresh tree, checking it against the model after each."""
    width, keys = KINDS[kind]
    sst_keys, level0_runs, capacity = geometry
    tree = OnlineLSMTree(
        width, sst_keys=sst_keys, fanout=2, level0_runs=level0_runs, memtable_capacity=capacity
    )
    model: dict = {}
    probes = probe_list(keys)
    check_tree(tree, model, probes)
    for op, index in ops:
        if op == "flush":
            tree.flush()
        elif op == "put":
            tree.put(keys[index])
            model[keys[index]] = True
        else:
            tree.delete(keys[index])
            model[keys[index]] = False
        check_tree(tree, model, probes)


geometries = st.tuples(st.integers(2, 8), st.integers(1, 3), st.integers(1, 4))
write_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["put", "del"]), st.integers(0, POOL - 1)),
        st.just(("flush", 0)),
    ),
    max_size=64,
)

#: Put, bury in an SST, delete, flush the tombstone, put again (buffered).
RESURRECT = [("put", 0), ("put", 1), ("flush", 0), ("del", 0), ("flush", 0), ("put", 0)]


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(geometry=geometries, ops=write_ops)
@example(geometry=(2, 1, 2), ops=RESURRECT * 4)
def test_lookup_many_matches_reference_and_model(kind, geometry, ops):
    replay(kind, geometry, ops)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_streams_reach_empty_middle_levels_and_buried_tombstones(kind):
    """The tiny geometry really produces the states the model test relies on."""
    rng = random.Random(5)
    width, keys = KINDS[kind]
    tree = OnlineLSMTree(width, sst_keys=2, fanout=2, level0_runs=1, memtable_capacity=2)
    model: dict = {}
    probes = probe_list(keys)
    empty_middle = buried_tombstone = False
    for _ in range(400):
        index = rng.randrange(POOL)
        if rng.random() < 0.3:
            tree.delete(keys[index])
            model[keys[index]] = False
        else:
            tree.put(keys[index])
            model[keys[index]] = True
        check_tree(tree, model, probes)
        populated = [bool(level) for level in tree.deep_levels]
        if True in populated:
            bottom = len(populated) - 1 - populated[::-1].index(True)
            empty_middle |= not all(populated[: bottom + 1])
            buried_tombstone |= any(
                run is not None and run.tombstones is not None
                for run in tree.deep_runs[:bottom]
            )
    assert empty_middle and buried_tombstone
