"""Per-level probe layouts: every routed (query, SST) pair of a level in one pass.

:meth:`LSMTree.probe <repro.lsm.tree.LSMTree.probe>` used to answer each
routed SST group with its own ``matches_many`` and ``probe_many`` call, and
the per-call numpy overhead cost more than the handful of queries in each
group.  A :class:`LevelLayout` lays one level out as flat arrays so that
:meth:`LevelLayout.probe_pairs` answers all of the level's pairs together:

* **Keys** — the level's keys as one array with each SST's start and end
  offset (a zero-copy view when the SSTs are consecutive slices of one
  array, as :meth:`LSMTree.build`, online deep levels and shared-memory
  snapshots all produce).  Truth for pair ``(q, s)`` is one
  ``searchsorted`` of ``lo`` over the level, raised to ``s``'s start
  offset: the pair is true iff that index is below ``s``'s end offset and
  the key there is ``<= hi``.  Tombstones are entries, so they count.
* **Filters** — the SSTs' filters in one
  :class:`~repro.filters.prefix_pass.PrefixPass`, each clipped to its
  SST's fences.  A level's fences are sorted and disjoint, so the pass's
  trie intervals are too, and it answers every pair of a covered SST with
  one interval search and one Bloom kernel call.  The pass is each prefix
  filter's own probe, laid out there with key-space fences; its module
  docstring says why clipping to the SST's fences leaves every answer as
  the filter's own.

The pass covers every non-empty prefix filter (Proteus, the prefix and
whole-key Bloom filters, 1PBF) whose stored trie blocks all meet its SST's
fences.  Other filters — 2PBF, SuRF, Rosetta, the oracle, third-party
filters, and a prefix filter built over keys outside its SST's fences —
keep one ``SSTable.probe_many`` call per routed SST group, in SST order.
"""

from __future__ import annotations

from operator import attrgetter, is_

import numpy as np

from repro.filters.prefix_pass import PrefixPass
from repro.lsm.sstable import SSTable
from repro.workloads.batch import QueryBatch

__all__ = ["LevelLayout"]

_FILTER_OF = attrgetter("filter")


def _level_keys(level: list[SSTable]) -> tuple[np.ndarray, np.ndarray]:
    """The level's keys as one array, plus each SST's start offset (and the end).

    A view when the SSTs' key arrays are consecutive slices of one parent
    array, a concatenated copy otherwise.
    """
    arrays = [sst.keys.keys for sst in level]
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([array.size for array in arrays], out=offsets[1:])
    first = arrays[0]
    if len(arrays) == 1:
        return first, offsets
    base = first.base
    if (
        isinstance(base, np.ndarray)
        and base.ndim == 1
        and base.dtype == first.dtype
        and base.flags.c_contiguous
    ):
        step = base.itemsize
        start, misaligned = divmod(first.ctypes.data - base.ctypes.data, step)
        if not misaligned and 0 <= start and start + offsets[-1] <= base.size:
            expected = base.ctypes.data + (start + offsets[:-1]) * step
            if all(
                array.base is base and array.strides == (step,) and array.ctypes.data == address
                for array, address in zip(arrays, expected.tolist())
            ):
                return base[start : start + int(offsets[-1])], offsets
    return np.concatenate(arrays), offsets


class LevelLayout:
    """One populated LSM level's keys and prefix filters as flat arrays.

    Built from the filters attached when it is made; :meth:`is_current`
    says whether every SST still carries the filter object it captured.
    ``mins``/``maxs`` are the level's fence arrays in the tree's key dtype
    (``int64`` or ``S{L}``), which the filters'
    :class:`~repro.filters.prefix_pass.PrefixPass` clips each SST's trie
    intervals to; ``covered`` says which SSTs the pass answers.
    """

    def __init__(self, level: list[SSTable], width: int, mins: np.ndarray, maxs: np.ndarray):
        self.ssts = list(level)
        self.filters = [sst.filter for sst in level]
        self.keys, offsets = _level_keys(level)
        self.starts, self.ends = offsets[:-1], offsets[1:]
        self.filtered = np.array([filt is not None for filt in self.filters], dtype=bool)
        self.prefix_pass = PrefixPass(self.filters, width, mins, maxs)
        self.covered = self.prefix_pass.covered

    def is_current(self) -> bool:
        """Whether every SST still carries the filter this layout was built from."""
        return all(map(is_, map(_FILTER_OF, self.ssts), self.filters))

    # ------------------------------------------------------------------ #
    # The level pass                                                     #
    # ------------------------------------------------------------------ #

    def probe_pairs(
        self, batch: QueryBatch, pair_query: np.ndarray, pair_sst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer every routed pair of the level: ``(filtered, positive, truth)``.

        ``pair_query``/``pair_sst`` list the fence-routed (query, SST)
        pairs, sorted by SST (stably, as the tree routes them).  The three
        aligned boolean arrays are what :func:`repro.lsm.cost.classify`
        consumes: was a filter consulted, did it answer positive (an
        unfiltered SST always does), and does the SST hold a key in the
        query's range.  Covered SSTs are answered in one vectorised pass;
        every other filtered SST group keeps its ``probe_many`` call.
        """
        los, his = batch.los[pair_query], batch.his[pair_query]
        keys = self.keys
        # Raising the index to the SST's start offset keeps truth exact for
        # any pair; for a fence-routed one the level's first key >= lo is
        # either in the SST already or below min_s <= hi, which is true too.
        index = np.maximum(np.searchsorted(keys, los), self.starts[pair_sst])
        found = keys.take(index, mode="clip") <= his
        truth = (index < self.ends[pair_sst]) & np.asarray(found, dtype=bool)
        filtered = self.filtered[pair_sst]
        answer = self.prefix_pass.answer
        covered = self.covered[pair_sst]
        if covered.all():
            return filtered, answer(los, his, pair_sst), truth
        positive = np.ones(pair_sst.size, dtype=bool)
        if covered.any():
            rows = np.flatnonzero(covered)
            positive[rows] = answer(los[rows], his[rows], pair_sst[rows])
        rest = np.flatnonzero(filtered & ~covered)
        if rest.size:
            routed = batch.select(pair_query[rest])
            ssts = pair_sst[rest]
            bounds = (np.flatnonzero(np.diff(ssts)) + 1).tolist()
            for start, end in zip([0, *bounds], [*bounds, rest.size]):
                sst = self.ssts[int(ssts[start])]
                positive[rest[start:end]] = sst.probe_many(routed.select(slice(start, end)))
        return filtered, positive, truth
