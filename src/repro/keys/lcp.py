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

Both run as numpy passes over ``int64`` key arrays — the stored form of
every integer key space up to 64 bits (:mod:`repro.workloads.batch`): the
XOR of two stored width-64 keys equals the XOR of the keys, and
:func:`bit_length_many` reads it as ``uint64``, so LCPs are the same in
either form.  The scalar definitions these passes restate live in the
test-suite as their reference.
"""

from __future__ import annotations

import numpy as np

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
    """``int.bit_length`` of each value's 64-bit pattern (read as ``uint64``)."""
    v = np.asarray(values).astype(np.uint64)
    for shift in (1, 2, 4, 8, 16, 32):
        v = v | (v >> np.uint64(shift))
    return _popcount64(v).astype(np.int64)


def lcp_bits_many(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """LCP length in bits of ``a[i]`` and ``b[i]`` as ``width``-bit keys."""
    return width - bit_length_many(np.bitwise_xor(a, b))


def unique_prefix_counts_array(sorted_keys: np.ndarray, width: int) -> np.ndarray:
    """``counts[l] == |K_l|`` for ``l`` in ``[0, width]`` over a sorted int64 array.

    ``|K_0|`` is 1 (the empty prefix) whenever the key set is non-empty,
    and ``|K_l|`` is one plus the number of adjacent pairs whose LCP is
    shorter than ``l`` (each such pair branches before depth ``l``).
    """
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
    """Per key, the shortest prefix length no other key shares (SuRF pruning).

    ``1 + max(lcp with left neighbour, lcp with right neighbour)``, capped
    at ``width``, over a sorted int64 array (duplicates tolerated: they get
    the full width).  The parity suite pins it to the per-key reference.
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
    """``lcp(Q, K)`` of each interval ``(los[i], his[i])``.

    Non-empty intervals get the full ``width`` (such a query can never be
    filtered); empty ones get the max LCP against the predecessor of
    ``lo`` and the successor of ``hi`` — for ``a <= b <= c``,
    ``lcp(a, c) = min(lcp(a, b), lcp(b, c))``, so no other key can share
    more.
    """
    return np.maximum(*query_neighbour_lcps_many(sorted_keys, los, his, width))
