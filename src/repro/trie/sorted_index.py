"""Sorted-array prefix index: the reference for the succinct prefix index.

A uniform-depth trie of ``l1``-bit prefixes answers exactly two queries —
"is this ``l1``-prefix stored?" and "does any stored prefix fall inside a
prefix interval?" — both of which a sorted array of prefixes answers in
``O(log n)`` per query with ``np.searchsorted``, a whole batch at a time.
:class:`SortedPrefixIndex` is that query engine.  It is the reference
:class:`~repro.trie.fst.FSTPrefixIndex` (the same set as a succinct trie)
is held to, in :mod:`repro.evaluation.size_check` and the trie tests;
Proteus keeps its trie layer as the bare sorted prefix array and answers it
through :mod:`repro.filters.prefix_pass`.  The footprint of the succinct
encodings is modelled separately in :mod:`repro.trie.size_model`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.workloads.batch import stored_offset


def stored_prefix_array(prefixes, length: int, width: int) -> np.ndarray:
    """Return the sorted distinct stored ``length``-bit prefixes as an int64 array.

    Prefixes are in the key set's stored form (:mod:`repro.workloads.batch`):
    ``length``-bit unsigned values, less ``2**(length - 1)`` in a 64-bit
    key space.  Raises unless every prefix lies in that range.
    """
    if not 0 < length <= width:
        raise ValueError(f"prefix length {length} outside [1, {width}]")
    arr = np.unique(np.asarray(prefixes, dtype=np.int64))
    low = -stored_offset(width, length)
    if arr.size and not low <= int(arr[0]) <= int(arr[-1]) < low + (1 << length):
        raise ValueError(f"prefix outside the {length}-bit space")
    return arr


class SortedPrefixIndex:
    """An immutable set of equal-length bit prefixes with interval queries.

    ``length`` is the prefix length in bits and ``width`` the full key width;
    prefixes and keys are in the key set's stored form (an arithmetic shift
    of a stored key gives its stored prefix).  Every query is a batch,
    resolved with a ``searchsorted`` call or two over the ``int64`` array.
    """

    __slots__ = ("length", "width", "_arr")

    def __init__(self, prefixes: Iterable[int], length: int, width: int):
        """Index stored ``length``-bit ``prefixes`` of a ``width``-bit key space."""
        self._arr = stored_prefix_array(prefixes, length, width)
        self.length = length
        self.width = width

    @classmethod
    def from_keys(cls, keys: Iterable[int], length: int, width: int) -> "SortedPrefixIndex":
        """Index the ``length``-bit prefixes of stored ``width``-bit ``keys``."""
        return cls(np.asarray(keys, dtype=np.int64) >> np.int64(width - length), length, width)

    def __len__(self) -> int:
        """Return the number of stored prefixes."""
        return int(self._arr.size)

    def contains_many(self, prefixes: np.ndarray) -> np.ndarray:
        """Whether each stored-form prefix (an int64 array) is stored."""
        arr = self._arr
        idx = np.searchsorted(arr, prefixes, side="left")
        found = idx < arr.size
        safe = np.minimum(idx, max(arr.size - 1, 0))
        return found & (arr[safe] == prefixes) if arr.size else np.zeros(
            prefixes.shape, dtype=bool
        )

    def count_in_range_many(
        self, lo_prefixes: np.ndarray, hi_prefixes: np.ndarray
    ) -> np.ndarray:
        """How many stored prefixes fall in each ``[lo_prefix, hi_prefix]``."""
        arr = self._arr
        i = np.searchsorted(arr, lo_prefixes, side="left")
        j = np.searchsorted(arr, hi_prefixes, side="right")
        return np.maximum(j - i, 0)

    def overlaps_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Whether a stored prefix interval meets each ``[lo, hi]``.

        ``los`` and ``his`` are parallel arrays of stored full keys with
        ``lo <= hi``.
        """
        shift = np.int64(self.width - self.length)
        return self.count_in_range_many(los >> shift, his >> shift) > 0

    def size_in_bits(self) -> int:
        """Raw footprint of the sorted array itself (``n * length`` bits).

        Callers that follow the paper's accounting should instead charge
        :func:`repro.trie.size_model.binary_trie_size_estimate`.
        """
        return len(self) * self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Return a debugging summary."""
        return (
            f"SortedPrefixIndex(n={len(self)}, length={self.length}, "
            f"width={self.width})"
        )
