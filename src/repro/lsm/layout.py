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
* **Trie layers** — each stored ``l1``-prefix ``P`` of SST ``s`` becomes
  the fence-clipped key interval ``[max(P << t, min_s), min(P << t |
  (2**t - 1), max_s)]`` with ``t = w - l1``; an SST without a trie layer
  (or not covered here) contributes ``[min_s, max_s]``.  A level's fences
  are sorted and disjoint, so these intervals, listed in SST order, are
  too, and one ``searchsorted`` over their ends answers every pair.
* **Bloom layers** — one byte buffer with each SST's byte offset, size,
  probe count and seeds; :func:`repro.kernels.bloom_contains_hashed`
  probes every enumerated slot against its own SST's bits.

**Why the interval gate equals the per-SST trie gate.**  The pair is
fence-routed (``lo <= max_s`` and ``hi >= min_s``), and the layout only
covers a filter whose every stored block meets ``[min_s, max_s]`` (the
clipped intervals are non-empty).  If a block ``[x, y]`` meets ``[lo,
hi]``, each of ``x, min_s, lo`` is at most each of ``y, max_s, hi``, so
the clipped block meets the clipped query ``[max(lo, min_s), min(hi,
max_s)]``; the converse holds because both clipped sets are subsets.  The
integer path's per-slot test, "is this slot's ``l1``-prefix stored", is
the same search on the slot's whole ``l1``-block clipped to the fences:
a stored block's clipped interval is exactly that clipped block, and no
other interval of the level can meet it.

Integer levels hold the int64 stored form (:mod:`repro.workloads.batch`),
so width-64 trees take the same pass: shifts of stored keys are stored
prefixes and block starts, and the probe clamp reads slot spans as
``uint64`` (:func:`~repro.workloads.batch.slot_bounds`).  Filters the
layout does not cover — other families, and Proteus filters with a stored
block outside their SST's fences — keep one ``SSTable.probe_many`` call
per routed SST group, in SST order.
"""

from __future__ import annotations

from operator import attrgetter, is_

import numpy as np

from repro import kernels
from repro.amq.hashing import mix64_many
from repro.core.proteus import Proteus
from repro.filters.base import ragged_ranges
from repro.keys.bytestr import (
    byte_slot_bounds,
    expand_slot_rows,
    hash_rows_pair,
    rows_as_strings,
    strings_as_rows,
)
from repro.lsm.sstable import SSTable
from repro.workloads.batch import QueryBatch, slot_bounds

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


def _covers(filt, is_bytes: bool) -> bool:
    """Whether the level pass can answer for ``filt``: a non-empty Proteus over its kind of key."""
    return isinstance(filt, Proteus) and filt.num_keys > 0 and filt.is_bytes == is_bytes


class LevelLayout:
    """One populated LSM level's keys and Proteus filters as flat arrays.

    Built from the filters attached when it is made; :meth:`is_current`
    says whether every SST still carries the filter object it captured.
    ``mins``/``maxs`` are the level's fence arrays in the tree's key dtype
    (``int64`` or ``S{L}``).
    """

    def __init__(self, level: list[SSTable], width: int, mins: np.ndarray, maxs: np.ndarray):
        self.ssts = list(level)
        self.filters = [sst.filter for sst in level]
        self.width = width
        self.mins, self.maxs = mins, maxs
        self.keys, offsets = _level_keys(level)
        self.starts, self.ends = offsets[:-1], offsets[1:]
        self.filtered = np.array([filt is not None for filt in self.filters], dtype=bool)
        self.is_bytes = mins.dtype.kind == "S"
        self.covered = np.array(
            [_covers(filt, self.is_bytes) for filt in self.filters], dtype=bool
        )
        self._lay_out_filters()

    def is_current(self) -> bool:
        """Whether every SST still carries the filter this layout was built from."""
        return all(map(is_, map(_FILTER_OF, self.ssts), self.filters))

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    def _lay_out_filters(self) -> None:
        count = len(self.ssts)
        l1 = np.zeros(count, dtype=np.int64)
        l2 = np.zeros(count, dtype=np.int64)
        self.max_probes = np.ones(count, dtype=np.int64)
        self.has_trie = np.zeros(count, dtype=bool)
        self.has_bloom = np.zeros(count, dtype=bool)
        self.bloom_offset = np.zeros(count, dtype=np.int64)
        self.bloom_bits = np.ones(count, dtype=np.uint64)
        self.bloom_hashes = np.zeros(count, dtype=np.int64)
        self.seed1 = np.zeros(count, dtype=np.uint64)
        self.seed2 = np.zeros(count, dtype=np.uint64)
        #: Byte trees hash slot rows once per distinct (l2, max_probes, seed).
        self.group = np.zeros(count, dtype=np.int64)
        self.groups: list[tuple[int, int, int]] = []
        interval_los, interval_his, buffers = [], [], []
        buffer_bytes = 0
        for index, filt in enumerate(self.filters):
            lo, hi = self.mins[index : index + 1], self.maxs[index : index + 1]
            if self.covered[index]:
                trie = filt.trie_layer
                if trie is not None:
                    clipped = self._clipped_blocks(trie, index, filt.design.trie_depth)
                    if clipped is None:  # a block outside the fences: not this SST's filter
                        self.covered[index] = False
                    else:
                        lo, hi = clipped
                        self.has_trie[index] = True
            if self.covered[index]:
                l1[index] = filt.design.trie_depth
                l2[index] = filt.design.bloom_prefix_len
                self.max_probes[index] = filt.max_probes
                bloom = filt.bloom_layer
                if bloom is not None:
                    words = bloom.bits.words()
                    self.has_bloom[index] = True
                    self.bloom_offset[index] = buffer_bytes
                    self.bloom_bits[index] = bloom.num_bits
                    self.bloom_hashes[index] = bloom.num_hashes
                    self.seed1[index], self.seed2[index] = bloom.premixed_seeds
                    key = (filt.design.bloom_prefix_len, filt.max_probes, bloom.seed)
                    if key not in self.groups:
                        self.groups.append(key)
                    self.group[index] = self.groups.index(key)
                    buffers.append(words)
                    buffer_bytes += words.size
            interval_los.append(lo)
            interval_his.append(hi)
        self.interval_lo = np.concatenate(interval_los)
        self.interval_hi = np.concatenate(interval_his)
        self.buffer = np.concatenate(buffers) if buffers else np.zeros(1, dtype=np.uint8)
        if not self.is_bytes:
            # The integer slot arithmetic: l2-slot p has l1-block
            # (p >> gap) << shift1, which spans mask1 + 1 keys.
            self.shift1 = np.where(self.has_trie, self.width - l1, 0)
            self.l2 = l2
            self.gap = l2 - l1
            self.mask1 = ~(np.int64(-1) << self.shift1)

    def _clipped_blocks(self, trie, index: int, depth: int):
        """SST ``index``'s stored ``l1``-blocks clipped to its fences, or ``None``.

        ``None`` when the first block ends below ``min_s`` or the last
        starts above ``max_s``: then the filter does not describe this
        SST's keys and the clipped gate would not equal its own.
        """
        prefixes = trie.prefix_array
        if self.is_bytes:
            rows = strings_as_rows(prefixes)
            size = self.mins.dtype.itemsize
            starts = np.zeros((rows.shape[0], size), dtype=np.uint8)
            ends = np.full((rows.shape[0], size), 0xFF, dtype=np.uint8)
            starts[:, : rows.shape[1]] = rows
            ends[:, : rows.shape[1]] = rows
            if depth % 8:
                ends[:, rows.shape[1] - 1] |= np.uint8(0xFF >> (depth % 8))
            starts, ends = rows_as_strings(starts), rows_as_strings(ends)
        else:
            shift = np.int64(self.width - depth)
            starts = prefixes << shift
            ends = starts | ~(np.int64(-1) << shift)
        low, high = self.mins[index], self.maxs[index]
        if ends[0] < low or starts[-1] > high:
            return None
        starts[0] = max(starts[0], low)
        ends[-1] = min(ends[-1], high)
        return starts, ends

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
        answer = self._answer_bytes if self.is_bytes else self._answer_ints
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

    def _stored(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether a laid-out interval meets ``[lo, hi]`` (both fence-clipped)."""
        index = np.searchsorted(self.interval_hi, lo)
        inside = self.interval_lo.take(index, mode="clip") <= hi
        return (index < self.interval_hi.size) & inside

    def _answer_ints(self, los: np.ndarray, his: np.ndarray, sst: np.ndarray) -> np.ndarray:
        """Proteus answers for covered int64 pairs (``may_intersect_many``'s rules)."""
        gate = self._stored(np.maximum(los, self.mins[sst]), np.minimum(his, self.maxs[sst]))
        rows = np.flatnonzero(gate & self.has_bloom[sst])
        if rows.size == 0:
            return gate
        owner = sst[rows]
        plo, phi, clamped = slot_bounds(
            los[rows], his[rows], self.width, self.l2[owner], self.max_probes[owner]
        )
        # A clamped query stays a conservative positive.
        todo = ~clamped
        rows, owner, plo, phi = rows[todo], owner[todo], plo[todo], phi[todo]
        if rows.size == 0:
            return gate
        counts = phi - plo + 1
        slots, segments = ragged_ranges(plo, counts)
        slot_sst = np.repeat(owner, counts)
        values = slots.view(np.uint64)
        hits = kernels.bloom_contains_hashed(
            self.buffer,
            self.bloom_offset[slot_sst],
            self.bloom_bits[slot_sst],
            self.bloom_hashes[slot_sst],
            mix64_many(values ^ self.seed1[slot_sst]),
            mix64_many(values ^ self.seed2[slot_sst]) | np.uint64(1),
        )
        # A hit counts only if its slot's l1-prefix is stored: the clipped
        # search of the slot's whole l1-block.
        check = np.flatnonzero(hits & self.has_trie[slot_sst])
        if check.size:
            owner_of = slot_sst[check]
            block = (slots[check] >> self.gap[owner_of]) << self.shift1[owner_of]
            hits[check] = self._stored(
                np.maximum(block, self.mins[owner_of]),
                np.minimum(block | self.mask1[owner_of], self.maxs[owner_of]),
            )
        gate[rows] = np.logical_or.reduceat(hits, segments)
        return gate

    def _answer_bytes(self, los: np.ndarray, his: np.ndarray, sst: np.ndarray) -> np.ndarray:
        """Proteus answers for covered byte-key pairs (``_may_intersect_bytes``' rules).

        Byte mode probes every covered ``l2``-slot once the gate passes,
        with no per-slot ``l1`` test.
        """
        fence_lo, fence_hi = self.mins[sst], self.maxs[sst]
        gate = self._stored(
            np.where(los < fence_lo, fence_lo, los), np.where(his > fence_hi, fence_hi, his)
        )
        rows = np.flatnonzero(gate & self.has_bloom[sst])
        if rows.size == 0:
            return gate
        group_of = self.group[sst[rows]]
        single = len(self.groups) == 1
        targets, owners, firsts, lefts, rights = [], [], [], [], []
        total = 0
        for group in [0] if single else np.unique(group_of).tolist():
            prefix_len, max_probes, seed = self.groups[group]
            chosen = rows if single else rows[group_of == group]
            plo, base, span, clamped = byte_slot_bounds(
                strings_as_rows(los[chosen]), strings_as_rows(his[chosen]), prefix_len, max_probes
            )
            todo = np.flatnonzero(~clamped)
            if todo.size == 0:
                continue
            slot_rows, offsets = expand_slot_rows(plo, base, span, prefix_len, todo)
            left, right = hash_rows_pair(slot_rows, seed)
            targets.append(chosen[todo])
            owners.append(np.repeat(sst[chosen[todo]], span[todo] + 1))
            firsts.append(offsets[:-1] + total)
            lefts.append(left)
            rights.append(right)
            total += int(offsets[-1])
        if not targets:
            return gate
        slot_sst = np.concatenate(owners)
        hits = kernels.bloom_contains_hashed(
            self.buffer,
            self.bloom_offset[slot_sst],
            self.bloom_bits[slot_sst],
            self.bloom_hashes[slot_sst],
            np.concatenate(lefts),
            np.concatenate(rights),
        )
        gate[np.concatenate(targets)] = np.logical_or.reduceat(hits, np.concatenate(firsts))
        return gate
