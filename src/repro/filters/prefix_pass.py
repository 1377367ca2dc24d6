"""One range probe for Proteus' design space: prefix filters as flat arrays.

Proteus' design space is every filter made of a uniform-depth trie of
``l1``-bit key prefixes over a Bloom filter of ``l2``-bit key prefixes.  A
prefix Bloom filter is its trie-less point (the CPFPR model's
``one_pbf_fpr`` is ``proteus_fpr(0, l2, bits)``) and a whole-key Bloom
filter the point ``l2 = width``.  :class:`PrefixPass` answers ranges over
any number of such filters, each clipped to its own fences ``[min_s,
max_s]``, in one pass over flat arrays:

* **Trie layers** — each stored ``l1``-prefix ``P`` of filter ``s``
  becomes the fence-clipped key interval ``[max(P << t, min_s), min(P << t
  | (2**t - 1), max_s)]`` with ``t = w - l1``; a filter without a trie
  layer (or not covered here) contributes ``[min_s, max_s]``.  Fences given
  sorted and disjoint make these intervals, listed in filter order, sorted
  and disjoint too, and one ``searchsorted`` over their ends answers every
  query.
* **Bloom layers** — one byte buffer with each filter's byte offset, size,
  probe count and seeds; :func:`repro.kernels.bloom_contains_hashed`
  probes every enumerated ``l2``-slot against its own filter's bits.

An LSM level lays its SSTs' filters out with the SSTs' fences
(:class:`repro.lsm.layout.LevelLayout`).  A filter alone answers through
the same pass (:meth:`PrefixFilter.may_intersect_many`), laid out with its
fences at the two ends of the key space.

**Why the interval gate equals the filter's own trie gate.**  A query is
fence-routed (``lo <= max_s`` and ``hi >= min_s``), and the pass only
covers a filter whose every stored block meets ``[min_s, max_s]`` (the
clipped intervals are non-empty).  If a block ``[x, y]`` meets ``[lo,
hi]``, each of ``x, min_s, lo`` is at most each of ``y, max_s, hi``, so the
clipped block meets the clipped query ``[max(lo, min_s), min(hi,
max_s)]``; the converse holds because both clipped sets are subsets.  The
integer path's per-slot test, "is this slot's ``l1``-prefix stored", is the
same search on the slot's whole ``l1``-block clipped to the fences: a
stored block's clipped interval is exactly that clipped block, and no other
interval can meet it.  With key-space fences every block and every query
already lies inside the fences, so each clip is the identity: a lone
filter's answers are its trie gate and slot probes exactly.

Integer filters hold the int64 stored form (:mod:`repro.workloads.batch`),
so width-64 filters take the same pass: shifts of stored keys are stored
prefixes and block starts, and the probe clamp reads slot spans as
``uint64`` (:func:`~repro.workloads.batch.slot_bounds`).  Byte filters
probe every covered ``l2``-slot once the gate passes, with no per-slot
``l1`` test — the probe set the CPFPR byte evaluator charges.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import NamedTuple, Sequence

import numpy as np

from repro import kernels
from repro.amq.bloom import BloomFilter
from repro.amq.hashing import mix64_many
from repro.filters.base import RangeFilter, ragged_ranges
from repro.keys.bytestr import (
    byte_slot_bounds,
    expand_slot_rows,
    hash_rows_pair,
    rows_as_strings,
    strings_as_rows,
)
from repro.workloads.batch import slot_bounds, stored_offset

__all__ = ["PrefixFilter", "PrefixLayers", "PrefixPass", "answers_for"]


class PrefixLayers(NamedTuple):
    """What the pass reads of a filter: its two layers and its probe clamp.

    ``trie`` is the sorted array of stored ``l1``-bit prefixes (the int64
    stored form, or canonical prefix bytes as an ``S`` array), ``None``
    when ``trie_depth == 0``; ``bloom`` holds the ``l2``-bit prefixes,
    ``None`` when ``bloom_prefix_len == 0``.
    """

    trie_depth: int
    bloom_prefix_len: int
    trie: np.ndarray | None
    bloom: BloomFilter | None
    max_probes: int


class PrefixFilter(RangeFilter):
    """A range filter in Proteus' design space, answered by :class:`PrefixPass`.

    Subclasses say what their layers are (:attr:`prefix_layers`); the probe
    is the pass over the filter alone, built on each call from those layers.
    """

    #: Probe clamp: ranges covering more ``l2``-slots answer True.
    max_probes: int

    @property
    @abstractmethod
    def prefix_layers(self) -> PrefixLayers:
        """The filter's layers as the pass reads them (read-only)."""

    def may_intersect_many(self, queries) -> np.ndarray:
        """The trie gate, then the Bloom probes of each query's covered ``l2``-slots.

        Queries covering more than ``max_probes`` slots answer a
        conservative True.  The pass is laid out for this filter alone,
        fenced at the two ends of the key space.
        """
        batch = self._batch(queries)
        if self.num_keys == 0:
            return np.zeros(len(batch), dtype=bool)
        if self.is_bytes:
            size = self.width // 8
            mins = np.zeros(1, dtype=f"S{size}")
            maxs = np.array([b"\xff" * size], dtype=f"S{size}")
        else:
            low = -stored_offset(self.width)
            mins = np.array([low], dtype=np.int64)
            maxs = np.array([low + (1 << self.width) - 1], dtype=np.int64)
        owner = np.zeros(len(batch), dtype=np.int64)
        return PrefixPass([self], self.width, mins, maxs).answer(batch.los, batch.his, owner)


def answers_for(filt, is_bytes: bool) -> bool:
    """Whether the pass answers for ``filt`` over keys of this kind.

    True for a non-empty :class:`PrefixFilter` whose probe is the pass (a
    subclass that overrides it answers for itself).
    """
    return (
        isinstance(filt, PrefixFilter)
        and type(filt).may_intersect_many is PrefixFilter.may_intersect_many
        and filt.num_keys > 0
        and filt.is_bytes == is_bytes
    )


class PrefixPass:
    """Prefix filters and their fences as flat arrays, answered in one pass.

    ``filters[s]`` (``None`` for no filter) is answered inside ``[mins[s],
    maxs[s]]``, fence arrays in the keys' stored dtype (``int64`` or
    ``S{L}``) that are sorted and disjoint.  :attr:`covered` says which
    filters the pass answers for: :func:`answers_for` holds, and every
    stored trie block meets the filter's fences.
    """

    def __init__(self, filters: Sequence, width: int, mins: np.ndarray, maxs: np.ndarray):
        count = len(filters)
        self.width = width
        self.mins, self.maxs = mins, maxs
        self.is_bytes = mins.dtype.kind == "S"
        self.covered = np.array([answers_for(filt, self.is_bytes) for filt in filters], dtype=bool)
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
        #: Byte keys hash slot rows once per distinct (l2, max_probes, seed).
        self.group = np.zeros(count, dtype=np.int64)
        self.groups: list[tuple[int, int, int]] = []
        interval_los, interval_his, buffers = [], [], []
        buffer_bytes = 0
        for index, filt in enumerate(filters):
            lo, hi = mins[index : index + 1], maxs[index : index + 1]
            layers = filt.prefix_layers if self.covered[index] else None
            if layers is not None and layers.trie is not None:
                clipped = self._clipped_blocks(layers.trie, index, layers.trie_depth)
                if clipped is None:  # a block outside the fences: not these keys' filter
                    self.covered[index] = False
                    layers = None
                else:
                    lo, hi = clipped
                    self.has_trie[index] = True
            if layers is not None:
                l1[index] = layers.trie_depth
                l2[index] = layers.bloom_prefix_len
                self.max_probes[index] = layers.max_probes
                bloom = layers.bloom
                if bloom is not None:
                    words = bloom.bits.words()
                    self.has_bloom[index] = True
                    self.bloom_offset[index] = buffer_bytes
                    self.bloom_bits[index] = bloom.num_bits
                    self.bloom_hashes[index] = bloom.num_hashes
                    self.seed1[index], self.seed2[index] = bloom.premixed_seeds
                    key = (layers.bloom_prefix_len, layers.max_probes, bloom.seed)
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

    def _clipped_blocks(self, prefixes: np.ndarray, index: int, depth: int):
        """Filter ``index``'s stored ``l1``-blocks clipped to its fences, or ``None``.

        ``None`` when the first block ends below ``min_s`` or the last
        starts above ``max_s``: then the filter does not describe the keys
        inside its fences and the clipped gate would not equal its own.
        """
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

    def answer(self, los: np.ndarray, his: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Whether covered filter ``owner[j]`` may hold a key in ``[los[j], his[j]]``.

        Bounds are stored-form arrays in the fences' dtype, each query
        meeting its filter's fences.
        """
        answer = self._answer_bytes if self.is_bytes else self._answer_ints
        return answer(los, his, owner)

    def _stored(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether a laid-out interval meets ``[lo, hi]`` (both fence-clipped)."""
        index = np.searchsorted(self.interval_hi, lo)
        inside = self.interval_lo.take(index, mode="clip") <= hi
        return (index < self.interval_hi.size) & inside

    def _answer_ints(self, los: np.ndarray, his: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """:meth:`answer` over int64 stored bounds, with the per-slot ``l1`` test."""
        gate = self._stored(np.maximum(los, self.mins[owner]), np.minimum(his, self.maxs[owner]))
        rows = np.flatnonzero(gate & self.has_bloom[owner])
        if rows.size == 0:
            return gate
        owner = owner[rows]
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
        slot_owner = np.repeat(owner, counts)
        values = slots.view(np.uint64)
        hits = kernels.bloom_contains_hashed(
            self.buffer,
            self.bloom_offset[slot_owner],
            self.bloom_bits[slot_owner],
            self.bloom_hashes[slot_owner],
            mix64_many(values ^ self.seed1[slot_owner]),
            mix64_many(values ^ self.seed2[slot_owner]) | np.uint64(1),
        )
        # A hit counts only if its slot's l1-prefix is stored: the clipped
        # search of the slot's whole l1-block.
        check = np.flatnonzero(hits & self.has_trie[slot_owner])
        if check.size:
            owner_of = slot_owner[check]
            block = (slots[check] >> self.gap[owner_of]) << self.shift1[owner_of]
            hits[check] = self._stored(
                np.maximum(block, self.mins[owner_of]),
                np.minimum(block | self.mask1[owner_of], self.maxs[owner_of]),
            )
        gate[rows] = np.logical_or.reduceat(hits, segments)
        return gate

    def _answer_bytes(self, los: np.ndarray, his: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """:meth:`answer` over ``S{L}`` bounds: every covered slot once the gate passes."""
        fence_lo, fence_hi = self.mins[owner], self.maxs[owner]
        gate = self._stored(
            np.where(los < fence_lo, fence_lo, los), np.where(his > fence_hi, fence_hi, his)
        )
        rows = np.flatnonzero(gate & self.has_bloom[owner])
        if rows.size == 0:
            return gate
        group_of = self.group[owner[rows]]
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
            owners.append(np.repeat(owner[chosen[todo]], span[todo] + 1))
            firsts.append(offsets[:-1] + total)
            lefts.append(left)
            rights.append(right)
            total += int(offsets[-1])
        if not targets:
            return gate
        slot_owner = np.concatenate(owners)
        hits = kernels.bloom_contains_hashed(
            self.buffer,
            self.bloom_offset[slot_owner],
            self.bloom_bits[slot_owner],
            self.bloom_hashes[slot_owner],
            np.concatenate(lefts),
            np.concatenate(rights),
        )
        gate[np.concatenate(targets)] = np.logical_or.reduceat(hits, np.concatenate(firsts))
        return gate
