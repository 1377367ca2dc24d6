"""Variable-length byte-string keys and query batches.

:class:`ByteKeySet` stores a sorted distinct set of variable-length byte
keys in an arrow-style layout — one flat ``uint8`` buffer plus an
``int64`` offsets array — alongside a cached null-padded ``S{L}`` view
(``L`` = maximum key length) whose ``memcmp`` order equals the padded
big-endian ``8*L``-bit integer order of the keys' integer view.  All the
vectorised machinery (prefix extraction, LCPs, hashing, slot windows)
runs over the ``(n, L)`` uint8 matrix view of that padded array; see
:mod:`repro.keys.bytestr`.

Keys are canonicalised by stripping trailing null bytes: the padded
integer domain cannot distinguish a key from its null-padded extensions
(the paper makes the same concession for its string experiments), so the
stripped form is the canonical representative and raw lexicographic order
coincides with padded order.

:class:`ByteQueryBatch` is the matching :class:`~repro.workloads.batch.
QueryBatch` subclass with ``S``-dtype bounds; byte-aware consumers branch
on ``isinstance(batch, ByteQueryBatch)``, and its :meth:`pairs` yields the
padded big-integer bounds (the form :func:`~repro.workloads.batch.
stored_query_batch` converts through when integer bounds meet byte keys,
or byte bounds integer ones).

Integer keys of key spaces wider than 64 bits live here too, as their
``width // 8`` big-endian bytes (:func:`repro.workloads.batch.
int_key_bytes`): an integer bound or probe against a byte space is the
padded big-endian integer of its bytes, never the int64 stored form.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.keys.bytestr import (
    adjacent_lcp_bits,
    mask_rows,
    strings_as_rows,
    unique_rows,
)
from repro.workloads.batch import QueryBatch
from repro.workloads.keyset import KeySet

__all__ = ["ByteKeySet", "ByteQueryBatch"]


def _as_bytes(key) -> bytes:
    """A raw byte/str key as bytes: str is utf-8 encoded."""
    if isinstance(key, str):
        return key.encode("utf-8")
    return bytes(key)


def _clean_key(key) -> bytes:
    """Canonical byte form of a raw key: utf-8 encode, strip trailing nulls."""
    return _as_bytes(key).rstrip(b"\x00")


class ByteKeySet(KeySet):
    """Sorted distinct variable-length byte keys (arrow-style flat layout)."""

    __slots__ = (
        "width",
        "max_length",
        "buffer",
        "offsets",
        "keys",
        "_matrix",
        "_prefix_cache",
        "_prefix_counts",
    )

    def __init__(self, keys: Iterable[bytes | str], max_length: int | None = None):
        cleaned = sorted({_clean_key(key) for key in keys})
        longest = max((len(key) for key in cleaned), default=1)
        length = max_length if max_length is not None else max(1, longest)
        if length <= 0:
            raise ValueError("maximum key length must be positive")
        if longest > length:
            raise ValueError(f"key of length {longest} exceeds maximum {length}")
        lengths = np.array([len(key) for key in cleaned], dtype=np.int64)
        offsets = np.zeros(len(cleaned) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self._adopt(
            np.frombuffer(b"".join(cleaned), dtype=np.uint8),
            offsets,
            np.array(cleaned, dtype=f"S{length}"),
            length,
        )

    def _adopt(
        self,
        buffer: np.ndarray,
        offsets: np.ndarray,
        padded: np.ndarray,
        max_length: int,
    ) -> None:
        self.width = 8 * max_length
        self.max_length = max_length
        self.buffer = buffer
        self.offsets = offsets
        self.keys = padded
        self._matrix: np.ndarray | None = None
        self._prefix_cache: dict[int, np.ndarray] = {}
        self._prefix_counts: list[int] | None = None

    @classmethod
    def _trusted(
        cls,
        buffer: np.ndarray,
        offsets: np.ndarray,
        padded: np.ndarray,
        max_length: int,
    ) -> "ByteKeySet":
        """Adopt pre-validated storage (the slice / sorted_take constructor)."""
        instance = cls.__new__(cls)
        instance._adopt(buffer, offsets, padded, max_length)
        return instance

    @property
    def is_bytes(self) -> bool:
        return True

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n, L)`` uint8 view of the padded keys (cached, zero-copy)."""
        if self._matrix is None:
            self._matrix = strings_as_rows(self.keys)
        return self._matrix

    def key_at(self, index: int) -> bytes:
        """Materialise one key from the flat buffer (canonical bytes)."""
        start, stop = int(self.offsets[index]), int(self.offsets[index + 1])
        return self.buffer[start:stop].tobytes()

    def as_list(self) -> list[bytes]:
        return self.keys.tolist()

    def as_scalar(self, value) -> bytes:
        return bytes(value)

    def slice(self, start: int, stop: int) -> "ByteKeySet":
        """Zero-copy sub-range view: offsets and padded keys alias the parent."""
        if not 0 <= start <= stop <= len(self):
            raise ValueError(
                f"slice [{start}, {stop}) outside the key set of size {len(self)}"
            )
        return self._trusted(
            self.buffer,
            self.offsets[start : stop + 1],
            self.keys[start:stop],
            self.max_length,
        )

    @classmethod
    def _from_padded(cls, padded: np.ndarray, max_length: int) -> "ByteKeySet":
        """Adopt a sorted distinct canonical ``S``-dtype array verbatim.

        The caller vouches for the invariants (sorted, distinct, no key
        ending in a null byte); the flat buffer and offsets are rebuilt
        here.  ``tolist`` strips trailing nulls, which is exactly the
        canonical form — interior nulls survive.
        """
        chosen = padded.tolist()
        lengths = np.array([len(key) for key in chosen], dtype=np.int64)
        offsets = np.zeros(len(chosen) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        buffer = np.frombuffer(b"".join(chosen), dtype=np.uint8)
        return cls._trusted(buffer, offsets, padded, max_length)

    def sorted_take(self, indices: np.ndarray) -> "ByteKeySet":
        """Select distinct ``indices`` and rebuild a sorted, compact set."""
        return self._from_padded(np.sort(self.keys[indices]), self.max_length)

    def prefixes(self, length: int) -> np.ndarray:
        """Sorted distinct prefixes as canonical-byte rows (cached)."""
        if not 0 <= length <= self.width:
            raise ValueError(f"prefix length {length} outside [0, {self.width}]")
        cached = self._prefix_cache.get(length)
        if cached is None:
            if length == 0:
                cached = np.zeros((min(len(self), 1), 0), dtype=np.uint8)
            else:
                cached = unique_rows(mask_rows(self.matrix, length))
            self._prefix_cache[length] = cached
        return cached

    def prefix_counts(self) -> list[int]:
        """``counts[l] == |K_l|``, from one adjacent-LCP pass (cached)."""
        if self._prefix_counts is None:
            counts = np.zeros(self.width + 1, dtype=np.int64)
            if len(self):
                counts[0] = 1
                if len(self) > 1:
                    lcps = adjacent_lcp_bits(self.matrix)
                    histogram = np.bincount(lcps, minlength=self.width + 1)
                    counts[1:] = 1 + np.cumsum(histogram)[: self.width]
                else:
                    counts[1:] = 1
            self._prefix_counts = counts.tolist()
        return self._prefix_counts

    def distinguishing_byte_depths(self) -> np.ndarray:
        """Per-key minimum byte depth that distinguishes it (SuRF pruning)."""
        n = len(self)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if n == 1:
            return np.ones(1, dtype=np.int64)
        first_diff = adjacent_lcp_bits(self.matrix) // 8
        left = np.concatenate(([-1], first_diff))
        right = np.concatenate((first_diff, [-1]))
        return np.minimum(self.max_length, np.maximum(left, right) + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ByteKeySet(n={len(self)}, max_length={self.max_length})"


class ByteQueryBatch(QueryBatch):
    """Inclusive ``[lo, hi]`` byte-range queries over an ``8*L``-bit space."""

    __slots__ = ("max_length",)

    def __init__(self, los, his, max_length: int):
        if max_length <= 0:
            raise ValueError("maximum key length must be positive")
        self.width = 8 * max_length
        self.max_length = max_length
        self.los = self._as_strings(los, his)
        self.his = self._as_strings(his, los, swap=True)
        if self.los.shape != self.his.shape or self.los.ndim != 1:
            raise ValueError("los and his must be parallel one-dimensional arrays")
        self._validate()

    def _as_strings(self, values, others, swap: bool = False) -> np.ndarray:
        length = self.max_length
        if (
            isinstance(values, np.ndarray)
            and values.dtype.kind == "S"
            and values.dtype.itemsize == length
        ):
            return values
        cleaned = []
        other_list = list(others)
        for index, value in enumerate(values):
            if isinstance(value, (int, np.integer)):
                # A padded big-endian integer bound: its bytes, if it has any.
                value = int(value)
                if 0 <= value < 1 << self.width:
                    cleaned.append(value.to_bytes(length, "big"))
                    continue
                other = other_list[index]
                lo, hi = (other, value) if swap else (value, other)
                raise ValueError(
                    f"query range [{lo}, {hi}] outside the {self.width}-bit key space"
                )
            raw = _as_bytes(value)
            if len(raw) > length:
                other = _as_bytes(other_list[index])
                lo, hi = (other, raw) if swap else (raw, other)
                raise ValueError(
                    f"query range [{lo!r}, {hi!r}] outside the {self.width}-bit key space"
                )
            cleaned.append(raw)
        return np.array(cleaned, dtype=f"S{length}")

    def _validate(self) -> None:
        """Reject ``lo > hi`` in padded (``memcmp``) order, as ``_check_pair`` words it."""
        bad = self.los > self.his
        if bad.any():
            index = int(np.argmax(bad))
            lo, hi = bytes(self.los[index]), bytes(self.his[index])
            raise ValueError(f"empty query range [{lo!r}, {hi!r}]")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[bytes, bytes]], max_length: int) -> "ByteQueryBatch":
        """Build a batch from inclusive ``(lo, hi)`` byte pairs."""
        pairs = list(pairs)
        if not pairs:
            return cls([], [], max_length)
        los, his = zip(*pairs)
        return cls(los, his, max_length)

    @classmethod
    def points(cls, keys: Sequence[bytes], max_length: int) -> "ByteQueryBatch":
        """Build a batch of point queries ``(k, k)``."""
        keys = list(keys)
        return cls(keys, keys, max_length)

    @classmethod
    def _trusted(cls, los: np.ndarray, his: np.ndarray, width: int) -> "ByteQueryBatch":
        """Wrap stored ``S{width // 8}`` bound arrays: no cleaning, no validation."""
        batch = super()._trusted(los, his, width)
        batch.max_length = width // 8
        return batch

    @property
    def lo_matrix(self) -> np.ndarray:
        """Uint8 matrix view of the padded lower bounds."""
        return strings_as_rows(self.los)

    @property
    def hi_matrix(self) -> np.ndarray:
        """Uint8 matrix view of the padded upper bounds."""
        return strings_as_rows(self.his)

    def byte_pairs(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate the queries as canonical (null-stripped) byte pairs."""
        return zip(self.los.tolist(), self.his.tolist())

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate as padded big-integer pairs, the integer view of the bounds."""
        length = self.max_length
        for lo, hi in self.byte_pairs():
            yield (
                int.from_bytes(lo.ljust(length, b"\x00"), "big"),
                int.from_bytes(hi.ljust(length, b"\x00"), "big"),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ByteQueryBatch(n={len(self)}, max_length={self.max_length})"
