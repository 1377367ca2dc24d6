"""Scalar reference definitions the vectorised production paths restate.

Pure-Python, one key (or pair, or query) at a time, over the user's
integers.  ``src/`` runs numpy passes over stored ``int64`` arrays
(:mod:`repro.workloads.batch`); these are the definitions the parity tests
hold those passes equal to:

* the longest-common-prefix quantities of :mod:`repro.keys.lcp`
  (Section 4.3 of the paper);
* the ``heapq.merge`` newest-wins merge that :func:`repro.lsm.merge.
  merge_entry_runs` restates with one sort;
* the probes of the built filters — the exact oracle by bisection, the
  prefix Bloom filters (1PBF and the fixed baselines), 2PBF, Proteus and
  Rosetta one query at a time — which each family's ``may_intersect_many``
  restates as one batch.  They take a query in the filter's integer view:
  the user's integers, or padded big-endian integers for byte keys
  (:func:`padded_int`).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.keys.bytestr import prefix_item_bytes
from repro.lsm.merge import EntryRun, _check_runs
from repro.workloads.batch import coerce_keys, encode_ints, stored_offset
from repro.workloads.bytekeys import ByteKeySet
from repro.workloads.keyset import KeySet


def lcp_bits(a: int, b: int, width: int) -> int:
    """Length in bits of the longest common prefix of two ``width``-bit values."""
    if a == b:
        return width
    return width - (a ^ b).bit_length()


def adjacent_lcps(sorted_keys: Sequence[int], width: int) -> list[int]:
    """The LCP (in bits) of each adjacent pair in ``sorted_keys``."""
    return [
        lcp_bits(sorted_keys[i], sorted_keys[i + 1], width)
        for i in range(len(sorted_keys) - 1)
    ]


def unique_prefix_counts(sorted_keys: Sequence[int], width: int) -> list[int]:
    """``counts[l] == |K_l|`` for ``l`` in ``[0, width]``.

    ``|K_0|`` is 1 (the empty prefix) whenever the key set is non-empty;
    ``|K_l|`` is one plus the number of adjacent pairs whose LCP is shorter
    than ``l``.  Duplicate keys share all prefixes.
    """
    if not sorted_keys:
        return [0] * (width + 1)
    lcp_histogram = [0] * (width + 1)
    for lcp in adjacent_lcps(sorted_keys, width):
        lcp_histogram[lcp] += 1
    counts = [0] * (width + 1)
    counts[0] = 1
    pairs_with_shorter_lcp = 0
    for length in range(1, width + 1):
        pairs_with_shorter_lcp += lcp_histogram[length - 1]
        counts[length] = 1 + pairs_with_shorter_lcp
    return counts


def query_set_lcp(sorted_keys: Sequence[int], lo: int, hi: int, width: int) -> int:
    """``lcp(Q, K)`` for the query interval ``[lo, hi]``.

    A non-empty interval gets the full width; an empty one the larger LCP
    of ``lo`` with its predecessor key and of ``hi`` with its successor.
    """
    if not sorted_keys:
        return 0
    left = bisect_left(sorted_keys, lo)
    right = bisect_right(sorted_keys, hi)
    if right > left:
        return width
    best = 0
    if left > 0:
        best = max(best, lcp_bits(sorted_keys[left - 1], lo, width))
    if right < len(sorted_keys):
        best = max(best, lcp_bits(sorted_keys[right], hi, width))
    return best


def min_distinguishing_prefix_lengths(sorted_keys: Sequence[int], width: int) -> list[int]:
    """Per key, the shortest prefix length no other key shares (SuRF-Base)."""
    n = len(sorted_keys)
    if n == 0:
        return []
    if n == 1:
        return [1]
    lcps = adjacent_lcps(sorted_keys, width)
    lengths = []
    for i in range(n):
        left = lcps[i - 1] if i > 0 else -1
        right = lcps[i] if i < n - 1 else -1
        lengths.append(min(width, max(left, right) + 1))
    return lengths


def merge_entry_runs_scalar(runs: Sequence[EntryRun], drop_tombstones: bool = False) -> EntryRun:
    """The heap-merge reference: ``heapq.merge`` + first-entry-per-key.

    Runs arrive newest first; the first entry of each key wins.  Integer
    runs merge as the user's ints, byte runs as canonical bytes — the
    same lexicographic (padded ``memcmp``) order.
    """
    width = _check_runs(runs)
    streams = [
        zip(run.keys.as_list(), [priority] * len(run), run.tombstone_mask().tolist())
        for priority, run in enumerate(runs)
    ]
    merged_keys: list = []
    merged_tombstones: list[bool] = []
    previous = None
    for key, _, tombstone in heapq.merge(*streams):
        if key == previous:
            continue  # an older (higher-priority-number) entry: shadowed
        previous = key
        if drop_tombstones and tombstone:
            continue
        merged_keys.append(key)
        merged_tombstones.append(tombstone)
    tombstones = np.array(merged_tombstones, dtype=bool)
    if runs[0].keys.is_bytes:
        max_length = runs[0].keys.max_length
        merged: KeySet = ByteKeySet(merged_keys, max_length=max_length)
    else:
        merged = coerce_keys(merged_keys, width)
    return EntryRun(merged, tombstones if tombstones.any() else None)


# --------------------------------------------------------------------- #
# Filter probes, one query at a time                                    #
# --------------------------------------------------------------------- #


def padded_int(key, width: int) -> int:
    """A byte/str key's integer view: null-padded to ``width // 8`` bytes, big-endian."""
    raw = key.encode("utf-8") if isinstance(key, str) else bytes(key)
    return int.from_bytes(raw.ljust(width // 8, b"\x00"), "big")


def oracle_intersects(sorted_keys: Sequence[int], lo: int, hi: int) -> bool:
    """Whether ``[lo, hi]`` holds a key: the first key ``>= lo`` is ``<= hi``."""
    index = bisect_left(sorted_keys, lo)
    return index < len(sorted_keys) and sorted_keys[index] <= hi


def _stored(filt, key: int) -> int:
    """A probe in the form the filter hashes: stored ints, or padded ints for bytes."""
    return key if filt.is_bytes else encode_ints(key, filt.width)


def _bloom_has(bloom, prefix: int, length: int, is_bytes: bool) -> bool:
    """Probe one ``length``-bit prefix value as the item the build inserted."""
    if is_bytes:
        return bloom.contains_bytes(prefix_item_bytes(prefix, length))
    return bloom.contains(prefix)


def slot_clamped(plo: int, phi: int, length: int, max_probes: int, is_bytes: bool) -> bool:
    """The probe clamp on the ``length``-bit slots ``[plo, phi]`` of one query.

    More than ``max_probes`` slots always clamps.  Byte filters enumerate
    slots in a window over a prefix's trailing eight bytes, so a slot
    interval whose bytes above that window differ clamps too.
    """
    if phi - plo + 1 > max_probes:
        return True
    num_bytes = (length + 7) // 8
    if not is_bytes or num_bytes <= 8:
        return False
    window = 64 - (8 * num_bytes - length)
    return (plo >> window) != (phi >> window)


def pbf_point(filt, key: int) -> bool:
    """A prefix Bloom filter on one key: probe its ``prefix_len``-bit prefix."""
    if filt.num_keys == 0:
        return False
    prefix = _stored(filt, key) >> (filt.width - filt.prefix_len)
    return _bloom_has(filt._bloom, prefix, filt.prefix_len, filt.is_bytes)


def pbf_range(filt, lo: int, hi: int) -> bool:
    """A prefix Bloom filter on one range: probe every covered slot, or clamp."""
    if filt.num_keys == 0:
        return False
    shift = filt.width - filt.prefix_len
    plo, phi = _stored(filt, lo) >> shift, _stored(filt, hi) >> shift
    if slot_clamped(plo, phi, filt.prefix_len, filt.max_probes, filt.is_bytes):
        return True
    return any(
        _bloom_has(filt._bloom, prefix, filt.prefix_len, filt.is_bytes)
        for prefix in range(plo, phi + 1)
    )


def two_pbf_point(filt, key: int) -> bool:
    """2PBF on one key: both layers must answer positively."""
    return pbf_point(filt._first, key) and pbf_point(filt._second, key)


def two_pbf_range(filt, lo: int, hi: int) -> bool:
    """2PBF on one range: both layers must answer positively."""
    return pbf_range(filt._first, lo, hi) and pbf_range(filt._second, lo, hi)


def _trie_prefixes(filt) -> list[int] | None:
    """Proteus' stored ``l1``-prefixes as sorted ints in the probes' form."""
    trie = filt.trie_layer
    if trie is None:
        return None
    if not filt.is_bytes:
        return trie.tolist()
    l1 = filt.design.trie_depth
    num_bytes = (l1 + 7) // 8
    return sorted(
        int.from_bytes(item.ljust(num_bytes, b"\x00"), "big") >> (8 * num_bytes - l1)
        for item in trie.tolist()
    )


def _stores(prefixes: Sequence[int], prefix: int) -> bool:
    index = bisect_left(prefixes, prefix)
    return index < len(prefixes) and prefixes[index] == prefix


def proteus_point(filt, key: int) -> bool:
    """Proteus on one key: its ``l1``-prefix is stored, then its ``l2``-prefix probes."""
    if filt.num_keys == 0:
        return False
    key = _stored(filt, key)
    l1, l2 = filt.design.trie_depth, filt.design.bloom_prefix_len
    trie = _trie_prefixes(filt)
    if trie is not None and not _stores(trie, key >> (filt.width - l1)):
        return False
    if filt.bloom_layer is None:
        return True
    return _bloom_has(filt.bloom_layer, key >> (filt.width - l2), l2, filt.is_bytes)


def proteus_range(filt, lo: int, hi: int) -> bool:
    """Proteus on one range: the trie gate, then the covered ``l2``-slots.

    Integer keys skip every slot whose ``l1``-parent is not stored (no key
    lies below it); byte keys probe every covered slot once the gate
    passes, which is what the CPFPR byte evaluator charges.
    """
    if filt.num_keys == 0:
        return False
    lo, hi = _stored(filt, lo), _stored(filt, hi)
    l1, l2 = filt.design.trie_depth, filt.design.bloom_prefix_len
    trie = _trie_prefixes(filt)
    if trie is not None:
        shift = filt.width - l1
        if bisect_right(trie, hi >> shift) == bisect_left(trie, lo >> shift):
            return False
    bloom = filt.bloom_layer
    if bloom is None:
        return True
    shift = filt.width - l2
    plo, phi = lo >> shift, hi >> shift
    if slot_clamped(plo, phi, l2, filt.max_probes, filt.is_bytes):
        return True
    for prefix in range(plo, phi + 1):
        if trie is not None and not filt.is_bytes and not _stores(trie, prefix >> (l2 - l1)):
            continue
        if _bloom_has(bloom, prefix, l2, filt.is_bytes):
            return True
    return False


def rosetta_range(filt, lo: int, hi: int) -> bool:
    """Rosetta on one range, top down over the user's (or padded) integers.

    The segment-tree walk from the root reaches the maximal dyadic
    intervals of ``[lo, hi]`` left to right; each is doubted — probed at
    its level if that level is filtered, then its children — down to the
    bottom level, all under one ``max_probes`` budget whose exhaustion
    answers True.
    """
    if filt.num_keys == 0:
        return False
    width = filt.width
    budget = filt.max_probes

    def probe(prefix: int, level: int) -> bool:
        if not filt.is_bytes:
            prefix -= stored_offset(width, level)
        return _bloom_has(filt._blooms[level], prefix, level, filt.is_bytes)

    def doubt(prefix: int, level: int) -> bool:
        nonlocal budget
        if budget <= 0:
            return True
        if level >= filt.first_level:
            budget -= 1
            if not probe(prefix, level):
                return False
        if level == width:
            return True
        return doubt(2 * prefix, level + 1) or doubt(2 * prefix + 1, level + 1)

    def cover(prefix: int, level: int) -> bool:
        start = prefix << (width - level)
        end = start + (1 << (width - level)) - 1
        if end < lo or start > hi:
            return False
        if lo <= start and end <= hi:
            return doubt(prefix, level)
        return cover(2 * prefix, level + 1) or cover(2 * prefix + 1, level + 1)

    return cover(0, 0)
