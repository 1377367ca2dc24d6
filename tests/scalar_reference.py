"""Scalar reference definitions the vectorised production paths restate.

Pure-Python, one key (or pair, or query) at a time, over the user's
integers.  ``src/`` runs numpy passes over stored ``int64`` arrays
(:mod:`repro.workloads.batch`); these are the definitions the parity tests
hold those passes equal to:

* the longest-common-prefix quantities of :mod:`repro.keys.lcp`
  (Section 4.3 of the paper);
* the ``heapq.merge`` newest-wins merge that :func:`repro.lsm.merge.
  merge_entry_runs` restates with one sort.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.lsm.merge import EntryRun, _check_runs
from repro.workloads.batch import coerce_keys
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
