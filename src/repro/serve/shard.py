"""Key-space sharding: partition one tree's keys across serving workers.

A shard is a contiguous slice of the sorted key set, so the shard fences
(per-shard min/max keys) are increasing arrays and routing a query batch
is the same two-``searchsorted`` interval trick the
:class:`~repro.lsm.tree.LSMTree` uses to route queries to SSTs within a
level — just one level up: each query's candidate shards form the
contiguous interval ``first[q] <= s < last[q]``.  A range that straddles
a shard boundary fans out to every overlapping shard and the per-shard
answers OR together, which is exact because each shard answers ground
truth *for its own keys*.  A query falling entirely in the gap between
two shards' fences touches no worker at all and is answered negative by
the router for free — the serving-layer analogue of fence pruning.

Budget composition: the global :class:`~repro.api.spec.FilterSpec` splits
across shards with :func:`~repro.api.budget.derive_shard_specs` (shards
as allocation units), then each shard's tree re-splits its grant across
its own SSTs via the ordinary ``attach_filters`` path — the global-grant
invariant holds at both levels.
"""

from __future__ import annotations

import numpy as np

from repro.api import FilterSpec, Workload, derive_shard_specs, family
from repro.lsm.tree import LSMTree
from repro.workloads.keyset import KeySet

__all__ = ["plan_shard_bounds", "shard_fences", "split_key_set", "build_shard_trees"]


def plan_shard_bounds(num_keys: int, num_shards: int) -> list[tuple[int, int]]:
    """Near-equal contiguous index ranges ``[start, stop)``, one per shard.

    Sizes differ by at most one key.  More shards than keys is clamped to
    one key per shard — a worker with nothing to serve would be pure
    overhead.
    """
    if num_keys <= 0:
        raise ValueError("cannot shard an empty key set")
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    num_shards = min(num_shards, num_keys)
    edges = np.linspace(0, num_keys, num_shards + 1).astype(np.int64)
    return [(int(lo), int(hi)) for lo, hi in zip(edges, edges[1:])]


def split_key_set(keys: KeySet, num_shards: int) -> list[KeySet]:
    """Partition ``keys`` into contiguous shards (zero-copy slices)."""
    return [
        keys.slice(start, stop)
        for start, stop in plan_shard_bounds(len(keys), num_shards)
    ]


def shard_fences(shards: list[KeySet]) -> tuple[np.ndarray, np.ndarray]:
    """Per-shard min/max fence arrays in the key set's stored dtype.

    Same rule as the tree's level fences: the first and last element of
    each shard's key array — ``S``-dtype for byte keys (so a
    :class:`~repro.workloads.bytekeys.ByteQueryBatch`'s bounds searchsort
    directly in memcmp order), the int64 stored form for integers.
    """
    if not shards:
        raise ValueError("need at least one shard")
    dtype = shards[0].keys.dtype
    mins = np.array([shard.keys[0] for shard in shards], dtype=dtype)
    maxs = np.array([shard.keys[-1] for shard in shards], dtype=dtype)
    return mins, maxs


def route_queries(
    mins: np.ndarray, maxs: np.ndarray, los: np.ndarray, his: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate shard interval per query: ``first[q] <= s < last[q]``.

    Shards are disjoint and sorted, so both fence arrays are increasing
    and two binary searches bound each query's overlap set — ``first ==
    last`` means the range dodges every shard and the answer is a free
    negative.
    """
    first = np.searchsorted(maxs, los, side="left")
    last = np.searchsorted(mins, his, side="right")
    return first, last


def build_shard_trees(
    shards: list[KeySet],
    spec: FilterSpec | None = None,
    workload: Workload | None = None,
    policy: str = "proportional",
    sst_keys: int = 512,
    fanout: int = 4,
    seed: int = 0,
    metrics=None,
) -> list[LSMTree]:
    """One leveled tree per shard, filters split through the two-level budget.

    Each shard builds with a distinct derived seed so the level
    permutations are independent, and attaches filters from its
    :func:`~repro.api.budget.derive_shard_specs` share of the global
    budget against the one shared query sample — the paper's deployment,
    now per shard.  ``spec=None`` builds filterless trees (the no-filter
    serving baseline).
    """
    if spec is not None and workload is None and family(spec.family).requires_workload:
        # Catch this at the service boundary: failing later, deep inside
        # some shard's attach_filters, reads like a per-SST build bug.
        raise ValueError(
            f"filter family {spec.family!r} is self-designing; pass the "
            f"workload (query sample) to build sharded filters against"
        )
    trees = [
        LSMTree.build(shard, sst_keys=sst_keys, fanout=fanout, seed=seed + index)
        for index, shard in enumerate(shards)
    ]
    if spec is not None:
        shard_specs = derive_shard_specs(spec, [len(s) for s in shards], policy)
        for tree, shard_spec in zip(trees, shard_specs):
            tree.attach_filters(shard_spec, workload, policy=policy, metrics=metrics)
    return trees
