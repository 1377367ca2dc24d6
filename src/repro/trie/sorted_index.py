"""Sorted-array prefix index: Proteus' uniform-depth trie layer.

Proteus stores every distinct ``l1``-bit prefix of the key set in a trie of
uniform depth ``l1``.  Semantically that trie answers exactly two queries —
"is this key's ``l1``-prefix stored?" and "does any stored prefix fall inside
a prefix interval?" — both of which a sorted array of prefix integers answers
in ``O(log n)`` with :mod:`bisect`.  This module is that query engine; the
succinct LOUDS encodings are a storage-layout concern and their footprint is
modelled separately in :mod:`repro.trie.size_model` (see DESIGN notes in the
module docstring there).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

import numpy as np

from repro.keys.bytestr import mask_rows, prefix_item_bytes, rows_as_strings
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
    of a stored key gives its stored prefix).  Scalar queries bisect a
    sorted list; batch queries resolve with a couple of ``searchsorted``
    calls over the ``int64`` array.
    """

    __slots__ = ("prefixes", "length", "width", "_arr")

    def __init__(self, prefixes: Iterable[int], length: int, width: int):
        """Index stored ``length``-bit ``prefixes`` of a ``width``-bit key space."""
        self._arr = stored_prefix_array(prefixes, length, width)
        self.length = length
        self.width = width
        self.prefixes: list[int] = self._arr.tolist()

    @classmethod
    def from_keys(cls, keys: Iterable[int], length: int, width: int) -> "SortedPrefixIndex":
        """Index the ``length``-bit prefixes of stored ``width``-bit ``keys``."""
        return cls(np.asarray(keys, dtype=np.int64) >> np.int64(width - length), length, width)

    def __len__(self) -> int:
        """Return the number of stored prefixes."""
        return len(self.prefixes)

    def contains(self, prefix: int) -> bool:
        """Return whether ``prefix`` (a ``length``-bit value) is stored."""
        i = bisect_left(self.prefixes, prefix)
        return i < len(self.prefixes) and self.prefixes[i] == prefix

    def contains_prefix_of(self, key: int) -> bool:
        """Return whether the ``length``-bit prefix of ``key`` is stored."""
        return self.contains(key >> (self.width - self.length))

    def count_in_range(self, lo_prefix: int, hi_prefix: int) -> int:
        """Return how many stored prefixes fall in ``[lo_prefix, hi_prefix]``."""
        if lo_prefix > hi_prefix:
            return 0
        i = bisect_left(self.prefixes, lo_prefix)
        j = bisect_right(self.prefixes, hi_prefix, lo=i)
        return j - i

    def range_in_range(self, lo_prefix: int, hi_prefix: int) -> Sequence[int]:
        """Return the stored prefixes inside ``[lo_prefix, hi_prefix]`` (sorted)."""
        i = bisect_left(self.prefixes, lo_prefix)
        j = bisect_right(self.prefixes, hi_prefix, lo=i)
        return self.prefixes[i:j]

    def overlaps(self, lo: int, hi: int) -> bool:
        """Return whether any stored prefix interval intersects ``[lo, hi]``.

        ``lo`` and ``hi`` are full ``width``-bit keys with ``lo <= hi``.
        """
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        shift = self.width - self.length
        return self.count_in_range(lo >> shift, hi >> shift) > 0

    # ------------------------------------------------------------------ #
    # Batch queries                                                      #
    # ------------------------------------------------------------------ #

    def contains_many(self, prefixes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over an int64 array of prefixes."""
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
        """Vectorised :meth:`count_in_range` over parallel prefix arrays."""
        arr = self._arr
        i = np.searchsorted(arr, lo_prefixes, side="left")
        j = np.searchsorted(arr, hi_prefixes, side="right")
        return np.maximum(j - i, 0)

    def overlaps_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`overlaps` over parallel full-key arrays."""
        shift = np.int64(self.width - self.length)
        return self.count_in_range_many(los >> shift, his >> shift) > 0

    @property
    def prefix_array(self) -> np.ndarray:
        """The stored prefixes as a sorted read-only ``int64`` array."""
        view = self._arr.view()
        view.flags.writeable = False
        return view

    def size_in_bits(self) -> int:
        """Raw footprint of the sorted array itself (``n * length`` bits).

        Callers that follow the paper's accounting should instead charge
        :func:`repro.trie.size_model.binary_trie_size_estimate`.
        """
        return len(self.prefixes) * self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Return a debugging summary."""
        return (
            f"SortedPrefixIndex(n={len(self.prefixes)}, length={self.length}, "
            f"width={self.width})"
        )


class SortedBytePrefixIndex:
    """Byte-mode twin of :class:`SortedPrefixIndex` over canonical prefix bytes.

    Stores the distinct ``length``-bit prefixes of a byte key set as a sorted
    ``S{nb}`` array of their canonical byte encodings
    (:func:`repro.keys.bytestr.prefix_item_bytes` for scalars,
    :func:`~repro.keys.bytestr.mask_rows` rows in bulk).  ``memcmp`` order on
    those fixed-width strings equals prefix-integer order, so every query is
    a ``searchsorted`` call or two — with no 63-bit width ceiling.  The
    scalar entry points keep :class:`SortedPrefixIndex`'s integer signatures
    (prefixes and keys as padded big-endian ints), so Proteus' scalar paths
    call either index the same way.
    """

    __slots__ = ("keys", "length", "width")

    def __init__(self, prefix_rows: np.ndarray, length: int, width: int):
        """Index canonical ``length``-bit prefix rows (sorted distinct uint8)."""
        if not 0 < length <= width:
            raise ValueError(f"prefix length {length} outside [1, {width}]")
        self.length = length
        self.width = width
        self.keys = rows_as_strings(prefix_rows)

    def __len__(self) -> int:
        """Return the number of stored prefixes."""
        return int(self.keys.size)

    @property
    def prefix_array(self) -> np.ndarray:
        """The stored prefixes as a sorted read-only ``S{nb}`` array."""
        view = self.keys.view()
        view.flags.writeable = False
        return view

    def _item(self, prefix: int) -> np.bytes_:
        # Canonical like the array's elements, which numpy reads back with
        # trailing nulls stripped: an item keeping them would never compare
        # equal to its stored prefix (a prefix ending in a zero byte).
        return np.bytes_(prefix_item_bytes(prefix, self.length).rstrip(b"\x00"))

    def contains(self, prefix: int) -> bool:
        """Return whether ``prefix`` (a ``length``-bit value) is stored."""
        item = self._item(prefix)
        i = int(np.searchsorted(self.keys, item, side="left"))
        return i < self.keys.size and self.keys[i] == item

    def contains_prefix_of(self, key: int) -> bool:
        """Return whether the ``length``-bit prefix of ``key`` is stored."""
        return self.contains(key >> (self.width - self.length))

    def overlaps(self, lo: int, hi: int) -> bool:
        """Return whether any stored prefix interval intersects ``[lo, hi]``."""
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        shift = self.width - self.length
        i = np.searchsorted(self.keys, self._item(lo >> shift), side="left")
        j = np.searchsorted(self.keys, self._item(hi >> shift), side="right")
        return int(j) > int(i)

    def contains_rows(self, prefix_rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over canonical prefix rows."""
        probes = rows_as_strings(prefix_rows)
        if not self.keys.size:
            return np.zeros(probes.size, dtype=bool)
        idx = np.searchsorted(self.keys, probes, side="left")
        safe = np.minimum(idx, self.keys.size - 1)
        return (idx < self.keys.size) & (self.keys[safe] == probes)

    def overlaps_matrix(self, lo_mat: np.ndarray, hi_mat: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`overlaps` over full-width lo/hi uint8 matrices."""
        lo_s = rows_as_strings(mask_rows(lo_mat, self.length))
        hi_s = rows_as_strings(mask_rows(hi_mat, self.length))
        i = np.searchsorted(self.keys, lo_s, side="left")
        j = np.searchsorted(self.keys, hi_s, side="right")
        return j > i

    def size_in_bits(self) -> int:
        """Raw footprint of the prefix array (``n * length`` bits, as charged
        by :class:`SortedPrefixIndex`)."""
        return len(self) * self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Return a debugging summary."""
        return (
            f"SortedBytePrefixIndex(n={len(self)}, length={self.length}, "
            f"width={self.width})"
        )
