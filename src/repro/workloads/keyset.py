"""The ``KeySet`` protocol: what every key representation must provide.

The batch execution layer was built around one concrete class —
:class:`repro.workloads.EncodedKeySet`, an int64-first array of encoded
keys — but the interface the rest of the codebase actually consumes is
narrower and representation-agnostic: a *sorted distinct* key collection
in a ``width``-bit key space with cheap slicing, prefix extraction, and
LCP-derived statistics.  This module names that interface so a second
implementation (:class:`repro.workloads.ByteKeySet`, variable-length byte
strings in an arrow-style flat buffer) can slot in underneath the filters,
the LSM tree and the drivers without per-call-site special cases.

Invariants every implementation upholds:

* keys are sorted ascending and distinct in the padded ``width``-bit
  integer order (for byte keys: null-padded big-endian, i.e. ``memcmp``);
* ``keys`` exposes a numpy array that sorts/searchsorts in that same
  order (the ``int64`` stored form for integer sets — see
  :mod:`repro.workloads.batch` — and ``S{L}`` for byte sets), so fence
  pruning and membership bisection never branch on the representation;
* ``slice`` returns zero-copy views that alias the parent's storage
  (the SSTable aliasing contract).

Representation-specific return types are part of the protocol:
``prefixes(length)`` yields an array of prefix *integers* for integer
sets and a ``(m, ceil(length/8))`` uint8 matrix of canonical prefix
*bytes* for byte sets; consumers dispatch on :attr:`KeySet.is_bytes`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

__all__ = ["KeySet"]


class KeySet(ABC):
    """A sorted, distinct, bounds-checked key set in a ``width``-bit space."""

    __slots__ = ()

    #: Number of bits in the (padded) integer view of a key.
    width: int
    #: Numpy array sorting/searchsorting in padded key order.
    keys: np.ndarray

    @property
    def is_bytes(self) -> bool:
        """Whether keys are variable-length byte strings (byte fast paths)."""
        return False

    def __len__(self) -> int:
        return int(self.keys.size)

    def __iter__(self) -> Iterator:
        return iter(self.as_list())

    @property
    def first(self):
        """Smallest key, as the user's scalar (``int`` or ``bytes``)."""
        return self.as_scalar(self.keys[0])

    @property
    def last(self):
        """Largest key, as the user's scalar (``int`` or ``bytes``)."""
        return self.as_scalar(self.keys[-1])

    @abstractmethod
    def as_scalar(self, value):
        """Convert one element of :attr:`keys` to the user's scalar (``int`` or ``bytes``)."""

    @abstractmethod
    def as_list(self) -> list:
        """Return the keys as a plain sorted list of the user's scalars."""

    @abstractmethod
    def slice(self, start: int, stop: int) -> "KeySet":
        """Zero-copy view of the contiguous sub-range ``[start, stop)``."""

    @abstractmethod
    def sorted_take(self, indices: np.ndarray) -> "KeySet":
        """Select ``indices`` (distinct, any order) and re-sort the result."""

    @abstractmethod
    def prefixes(self, length: int) -> np.ndarray:
        """Sorted distinct ``length``-bit key prefixes (cached).

        Integer sets return prefix values; byte sets return canonical
        prefix-byte rows (see module docstring).
        """

    @abstractmethod
    def prefix_counts(self) -> list[int]:
        """``counts`` with ``counts[l] == |K_l|`` for ``l`` in ``[0, width]``."""
