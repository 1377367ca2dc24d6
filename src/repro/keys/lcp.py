"""Longest-common-prefix computations used by the CPFPR model.

The model (Section 3 of the paper) needs two quantities derived from the key
set and the sample queries:

* ``|K_l|`` — the number of unique ``l``-bit prefixes of the key set, for
  every prefix length ``l``.  This drives the Bloom filter FPR estimate and
  the trie size estimate.  It is computed from the LCPs of adjacent keys in
  the sorted key set (an ``O(|K|)`` pass, Section 4.3 "Count Key Prefixes").
* ``lcp(Q, K)`` — for an empty query interval ``Q``, the longest common
  prefix between any value in ``Q`` and any key.  Any prefix length at most
  ``lcp(Q, K)`` cannot distinguish the query from the key set and is a
  guaranteed false positive (Section 4.3 "Count Query Prefixes").

Both quantities come in two flavours: the scalar reference implementations
(arbitrary key widths, pure Python) and ``*_many`` numpy batch versions for
word-sized key spaces (width <= 63, so values and spans fit ``int64``).  The
batch versions are bit-exact re-statements of the scalar ones — the CPFPR
model dispatches between them and the parity test-suite holds them equal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

#: Widest key space whose values (and ``hi - lo`` spans) fit ``numpy.int64``.
MAX_VECTOR_WIDTH = 63


def lcp_bits(a: int, b: int, width: int) -> int:
    """Return the length in bits of the longest common prefix of ``a`` and ``b``.

    Both values are interpreted as ``width``-bit unsigned integers.
    """
    if a == b:
        return width
    return width - (a ^ b).bit_length()


def adjacent_lcps(sorted_keys: Sequence[int], width: int) -> list[int]:
    """Return the LCP (in bits) of each adjacent pair in ``sorted_keys``."""
    return [
        lcp_bits(sorted_keys[i], sorted_keys[i + 1], width)
        for i in range(len(sorted_keys) - 1)
    ]


def unique_prefix_counts(sorted_keys: Sequence[int], width: int) -> list[int]:
    """Return ``counts`` where ``counts[l] == |K_l|`` for ``l`` in ``[0, width]``.

    ``|K_0|`` is 1 (the empty prefix) whenever the key set is non-empty.
    ``|K_l|`` equals one plus the number of adjacent key pairs whose LCP is
    shorter than ``l`` (each such pair contributes a branch before depth
    ``l``).  Duplicate keys are tolerated (they share all prefixes).
    """
    if not sorted_keys:
        return [0] * (width + 1)
    # lcp_histogram[d] = number of adjacent pairs with LCP exactly d bits.
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
    """Return ``lcp(Q, K)`` for the query interval ``[lo, hi]``.

    If the interval contains a key (i.e. the query is not empty), the LCP is
    the full key width, matching the model's convention that such a query can
    never be filtered.

    For an empty interval the maximum LCP with the key set is attained either
    between ``lo`` and its predecessor key or between ``hi`` and its successor
    key, because for values ``a <= b <= c`` we have
    ``lcp(a, c) = min(lcp(a, b), lcp(b, c))``.
    """
    if not sorted_keys:
        return 0
    left = bisect_left(sorted_keys, lo)
    right = bisect_right(sorted_keys, hi)
    if right > left:
        # At least one key falls inside [lo, hi]: the query is non-empty.
        return width
    best = 0
    if left > 0:
        best = max(best, lcp_bits(sorted_keys[left - 1], lo, width))
    if right < len(sorted_keys):
        best = max(best, lcp_bits(sorted_keys[right], hi, width))
    return best


def min_distinguishing_prefix_lengths(
    sorted_keys: Sequence[int], width: int
) -> list[int]:
    """Return, for each key, the minimum prefix length that uniquely identifies it.

    This is the pruning rule used by SuRF-Base: the branch for each key is cut
    at the shortest prefix that no other key shares.  For a key at position
    ``i`` this is ``1 + max(lcp with left neighbour, lcp with right
    neighbour)`` (capped at the key width).  Duplicate keys get the full
    width.
    """
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


# --------------------------------------------------------------------- #
# Vectorised batch versions (width <= MAX_VECTOR_WIDTH, int64 arrays)   #
# --------------------------------------------------------------------- #

_POP_M1 = np.uint64(0x5555555555555555)
_POP_M2 = np.uint64(0x3333333333333333)
_POP_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_POP_H01 = np.uint64(0x0101010101010101)


def _popcount64(values: np.ndarray) -> np.ndarray:
    """SWAR popcount over a ``uint64`` array (no numpy-2-only intrinsics)."""
    v = values
    v = v - ((v >> np.uint64(1)) & _POP_M1)
    v = (v & _POP_M2) + ((v >> np.uint64(2)) & _POP_M2)
    v = (v + (v >> np.uint64(4))) & _POP_M4
    return (v * _POP_H01) >> np.uint64(56)


def bit_length_many(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` over an array of non-negative word-sized integers."""
    v = np.asarray(values).astype(np.uint64)
    for shift in (1, 2, 4, 8, 16, 32):
        v = v | (v >> np.uint64(shift))
    return _popcount64(v).astype(np.int64)


def lcp_bits_many(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`lcp_bits`: LCP length of ``a[i]`` and ``b[i]``."""
    return width - bit_length_many(np.bitwise_xor(a, b))


def unique_prefix_counts_array(sorted_keys: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`unique_prefix_counts` over a sorted distinct int64 array."""
    counts = np.zeros(width + 1, dtype=np.int64)
    if sorted_keys.size == 0:
        return counts
    counts[0] = 1
    if sorted_keys.size > 1:
        lcps = lcp_bits_many(sorted_keys[:-1], sorted_keys[1:], width)
        histogram = np.bincount(lcps, minlength=width + 1)
        # counts[l] = 1 + #adjacent pairs with LCP < l.
        counts[1:] = 1 + np.cumsum(histogram)[: width]
    else:
        counts[1:] = 1
    return counts


def min_distinguishing_prefix_lengths_array(
    sorted_keys: np.ndarray, width: int
) -> np.ndarray:
    """Vectorised :func:`min_distinguishing_prefix_lengths` over an int64 array.

    Same contract: ``sorted_keys`` must be sorted (duplicates tolerated);
    the result is bit-exact against the scalar reference, which the parity
    suite pins.
    """
    n = int(sorted_keys.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        return np.ones(1, dtype=np.int64)
    lcps = lcp_bits_many(sorted_keys[:-1], sorted_keys[1:], width)
    left = np.concatenate(([-1], lcps))
    right = np.concatenate((lcps, [-1]))
    return np.minimum(width, np.maximum(left, right) + 1)


def query_neighbour_lcps_many(
    sorted_keys: np.ndarray, los: np.ndarray, his: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of :func:`query_set_lcp_many`, kept apart.

    Per interval ``(los[i], his[i])``: the LCP of ``lo`` with its
    predecessor key and the LCP of ``hi`` with its successor key, each 0
    where that neighbour does not exist.  Non-empty intervals get the full
    ``width`` in both halves.
    """
    lo_side = np.zeros(los.shape[0], dtype=np.int64)
    hi_side = np.zeros(los.shape[0], dtype=np.int64)
    n = sorted_keys.size
    if n == 0 or lo_side.size == 0:
        return lo_side, hi_side
    left = np.searchsorted(sorted_keys, los, side="left")
    right = np.searchsorted(sorted_keys, his, side="right")
    nonempty = right > left
    lo_side[nonempty] = width
    hi_side[nonempty] = width
    empty = ~nonempty
    has_left = empty & (left > 0)
    if has_left.any():
        neighbours = sorted_keys[left[has_left] - 1]
        lo_side[has_left] = lcp_bits_many(neighbours, los[has_left], width)
    has_right = empty & (right < n)
    if has_right.any():
        neighbours = sorted_keys[right[has_right]]
        hi_side[has_right] = lcp_bits_many(neighbours, his[has_right], width)
    return lo_side, hi_side


def query_set_lcp_many(
    sorted_keys: np.ndarray, los: np.ndarray, his: np.ndarray, width: int
) -> np.ndarray:
    """Vectorised :func:`query_set_lcp` over ``(los[i], his[i])`` intervals.

    Non-empty intervals get the full ``width`` (same convention as the
    scalar version); empty ones get the max LCP against the predecessor of
    ``lo`` and the successor of ``hi``.
    """
    return np.maximum(*query_neighbour_lcps_many(sorted_keys, los, his, width))
