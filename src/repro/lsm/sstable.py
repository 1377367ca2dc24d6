"""SSTables: contiguous key-set slices with fences and an optional filter.

An SST here is what the I/O cost model needs of a RocksDB table file: a
sorted, contiguous run of keys (a zero-copy
:meth:`~repro.workloads.keyset.KeySet.slice` view into its level's key
array), its min/max *fences* (always resident, consulted for free), and the
per-SST range filter the paper attaches — built through the
:mod:`repro.api` registry from a shared workload sample, exactly like every
other filter in the repository.

The SST is representation-agnostic: any :class:`~repro.workloads.keyset.
KeySet` works, because fences, ground truth, and slicing only need the
``keys`` array's native sort order — ``int64`` stored integers and
``S``-dtype byte strings both ``searchsorted`` correctly.  Fences are
shown as the user's scalars (``int`` or ``bytes``) accordingly.

The SST also knows its own ground truth (:meth:`matches_many`): whether a
query range actually contains one of its keys, via binary search on the
slice.  The cost model compares filter answers against this to classify
each charged block read as required or false-positive.

Online SSTs (flush and compaction outputs, :mod:`repro.lsm.online`) carry
an optional *tombstone* mask alongside the keys: a tombstoned entry
records a delete that still shadows older entries for the same key in
deeper levels.  Tombstones are real entries — they occupy the table, the
filter indexes them, and a read that lands on one is a *required* read
(it is how the tree learns the key is deleted) — so :meth:`matches_many`
deliberately answers over all entries, live and deleted alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.spec import FilterSpec
from repro.filters.base import RangeFilter
from repro.workloads.batch import QueryBatch
from repro.workloads.keyset import KeySet

__all__ = ["SSTable"]


class SSTable:
    """One sorted run of keys with fences and an optional range filter."""

    __slots__ = ("level", "index", "keys", "filter", "spec", "tombstones")

    def __init__(
        self,
        level: int,
        index: int,
        keys: KeySet,
        tombstones: np.ndarray | None = None,
    ):
        if len(keys) == 0:
            raise ValueError("an SSTable must hold at least one key")
        if tombstones is not None:
            tombstones = np.asarray(tombstones, dtype=bool)
            if tombstones.shape != (len(keys),):
                raise ValueError(
                    f"tombstone mask of shape {tombstones.shape} does not "
                    f"match {len(keys)} keys"
                )
            if not tombstones.any():
                tombstones = None
        self.level = level
        self.index = index
        self.keys = keys
        self.tombstones = tombstones
        self.filter: RangeFilter | None = None
        self.spec: FilterSpec | None = None

    @property
    def width(self) -> int:
        return self.keys.width

    @property
    def min_key(self) -> int | bytes:
        """Lower fence: the smallest key, as the user's scalar."""
        return self.keys.first

    @property
    def max_key(self) -> int | bytes:
        """Upper fence: the largest key, as the user's scalar."""
        return self.keys.last

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_tombstones(self) -> int:
        """How many of this table's entries are deletes."""
        return int(self.tombstones.sum()) if self.tombstones is not None else 0

    def tombstone_mask(self) -> np.ndarray:
        """The tombstone mask, materialised (all-False when ``None``)."""
        if self.tombstones is None:
            return np.zeros(len(self.keys), dtype=bool)
        return self.tombstones

    @staticmethod
    def merge_sorted(key_sets: Sequence[KeySet]) -> KeySet:
        """Merge already-sorted key sets into one sorted distinct set.

        The k-way merge behind compaction, as a single
        ``np.concatenate``+``lexsort`` pass through the
        :func:`repro.kernels.merge_runs` kernel instead of a Python heap
        loop — parity-pinned against the ``heapq.merge`` scalar reference
        in ``tests/test_batch_parity.py``.
        """
        from repro.lsm.merge import merge_key_sets

        return merge_key_sets(key_sets)

    def attach_filter(self, filt: RangeFilter, spec: FilterSpec | None = None) -> None:
        """Install the per-SST filter (and remember the spec that built it)."""
        if filt.width != self.width:
            raise ValueError(
                f"filter width {filt.width} does not match SST width {self.width}"
            )
        self.filter = filt
        self.spec = spec

    def clear_filter(self) -> None:
        self.filter = None
        self.spec = None

    def overlaps(self, lo, hi) -> bool:
        """Fence check: can ``[lo, hi]`` intersect this table at all?

        Bounds are native scalars: padded-order and native lexicographic
        order coincide (canonical byte keys never end in a null), so the
        comparison is representation-blind.
        """
        return self.min_key <= hi and self.max_key >= lo

    def matches_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Exact per-query truth: does ``[lo, hi]`` contain a key of this SST?

        ``[lo, hi]`` contains a key iff the first key ``>= lo`` exists and is
        ``<= hi`` — two binary searches on the sorted slice.  ``los`` and
        ``his`` are in the key array's form: stored integers or ``S`` bytes.
        """
        arr = self.keys.keys
        idx = np.searchsorted(arr, los, side="left")
        safe = np.minimum(idx, len(arr) - 1)
        found = (idx < len(arr)) & np.asarray(arr[safe] <= his, dtype=bool)
        return np.asarray(found, dtype=bool)

    def probe_many(self, batch: QueryBatch) -> np.ndarray:
        """Filter answers for a (fence-surviving) query batch.

        With no filter attached every probe is positive — the no-filter
        baseline reads every fence-surviving table.
        """
        if self.filter is None:
            return np.ones(len(batch), dtype=bool)
        return self.filter.may_intersect_many(batch)

    def filter_size_bits(self) -> int:
        """Charged footprint of the attached filter (0 when none)."""
        return self.filter.size_in_bits() if self.filter is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(level={self.level}, index={self.index}, keys={len(self)}, "
            f"fences=[{self.min_key}, {self.max_key}], "
            f"filter={'yes' if self.filter is not None else 'no'})"
        )
