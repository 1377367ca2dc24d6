"""Shared array representation for keys and query batches.

Every layer of the batched execution path speaks two types:

* :class:`EncodedKeySet` — a sorted, distinct, bounds-checked key set in a
  fixed-width integer key space, backed by a numpy array;
* :class:`QueryBatch` — a batch of inclusive ``[lo, hi]`` range queries in
  the same space, backed by parallel ``los``/``his`` arrays (a point query
  is ``lo == hi``).

For word-sized key spaces (``width <= MAX_VECTOR_WIDTH`` — 63 bits, so
values *and* spans fit ``int64``) the backing arrays are ``int64`` and every
consumer (bulk Bloom probes, the vectorised CPFPR model, the batch filter
API) runs a few numpy operations per batch.  Wider spaces (null-padded
string keys can be thousands of bits) fall back to ``object`` arrays of
Python ints; consumers detect ``is_vector == False`` and take their scalar
per-item paths, so correctness never depends on the fast path.

Both types validate on construction with the same rules as the scalar
entry points (:func:`repro.keys.keyspace.sorted_distinct_keys` for keys,
``RangeFilter._check_range`` for queries), so a batch handed to any filter
or model is already known to be well-formed.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.keys.keyspace import KeySpace, sorted_distinct_keys
from repro.keys.lcp import MAX_VECTOR_WIDTH, unique_prefix_counts, unique_prefix_counts_array
from repro.workloads.keyset import KeySet

__all__ = [
    "MAX_VECTOR_WIDTH",
    "EncodedKeySet",
    "QueryBatch",
    "as_key_array",
    "coerce_keys",
    "coerce_query_batch",
    "probe_key_array",
    "slot_bounds",
]


def slot_bounds(
    los: np.ndarray,
    his: np.ndarray,
    width: int,
    prefix_len: int,
    max_probes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query prefix-slot interval and probe clamp: ``(plo, phi, clamped)``.

    ``plo``/``phi`` bound the ``prefix_len``-bit slots each ``[lo, hi]``
    covers; ``clamped`` marks queries spanning more than ``max_probes``
    slots (the filters answer those with a conservative True, and the CPFPR
    model charges them as certain positives).  The clamp compares the span
    against ``max_probes - 1`` instead of forming the slot count
    ``phi - plo + 1``, which would overflow int64 on a full-space query in
    a 63-bit key space.  Every Bloom-layer consumer shares this helper so
    the overflow-sensitive idiom lives in exactly one place.
    """
    shift = np.int64(width - prefix_len)
    plo = los >> shift
    phi = his >> shift
    return plo, phi, phi - plo > max_probes - 1


def _is_vector_width(width: int) -> bool:
    return width <= MAX_VECTOR_WIDTH


class EncodedKeySet(KeySet):
    """A sorted distinct key set in a ``width``-bit space, as a numpy array.

    ``keys`` holds ``int64`` values for word-sized spaces and Python ints
    (``object`` dtype) otherwise; either way the array is sorted, distinct
    and bounds-checked, so every consumer can skip its own validation.
    """

    __slots__ = ("width", "keys", "_prefix_cache", "_prefix_counts")

    def __init__(self, keys: Iterable[int], width: int):
        if width <= 0:
            raise ValueError("key width must be positive")
        self.width = width
        if _is_vector_width(width):
            if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
                arr = np.unique(keys.astype(np.int64, copy=False))
            else:
                arr = np.array(sorted_distinct_keys(keys, width), dtype=np.int64)
            if arr.size and not 0 <= int(arr[0]) <= int(arr[-1]) < (1 << width):
                raise ValueError(f"key outside the {width}-bit key space")
            self.keys = arr
        else:
            self.keys = np.array(sorted_distinct_keys(keys, width), dtype=object)
        self._prefix_cache: dict[int, np.ndarray] = {}
        self._prefix_counts: list[int] | None = None

    @classmethod
    def from_raw(cls, keys: Iterable, key_space: KeySpace) -> "EncodedKeySet":
        """Encode raw-domain keys through ``key_space`` and wrap them."""
        return cls(key_space.encode_many(keys), key_space.width)

    @property
    def is_vector(self) -> bool:
        """Whether the backing array supports the numpy fast paths."""
        return self.keys.dtype != object

    def __len__(self) -> int:
        return int(self.keys.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.as_list())

    def as_list(self) -> list[int]:
        """Return the keys as a plain sorted list of Python ints."""
        return self.keys.tolist()

    def as_ints(self) -> np.ndarray:
        """The integer view of the keys — the backing array itself."""
        return self.keys

    @classmethod
    def _trusted(cls, arr: np.ndarray, width: int) -> "EncodedKeySet":
        """Wrap an array already known to be sorted, distinct and in-bounds.

        The internal constructor behind :meth:`slice` and the LSM level
        builder: no validation, no copy — ``arr`` is adopted as the backing
        store, so the caller vouches for the invariants.
        """
        instance = cls.__new__(cls)
        instance.width = width
        instance.keys = arr
        instance._prefix_cache = {}
        instance._prefix_counts = None
        return instance

    def slice(self, start: int, stop: int) -> "EncodedKeySet":
        """Return the contiguous sub-range ``[start, stop)`` as a zero-copy view.

        Basic numpy slicing shares the backing buffer, and a contiguous slice
        of a sorted distinct in-bounds array keeps every ``EncodedKeySet``
        invariant, so no validation (and no copy) is needed — this is the
        per-SST construction path: one encoded key array, many SSTable views.
        """
        if not 0 <= start <= stop <= len(self):
            raise ValueError(
                f"slice [{start}, {stop}) outside the key set of size {len(self)}"
            )
        return self._trusted(self.keys[start:stop], self.width)

    def sorted_take(self, indices: np.ndarray) -> "EncodedKeySet":
        """Select distinct ``indices`` (any order) and re-sort the result."""
        return self._trusted(np.sort(self.keys[indices]), self.width)

    def prefixes(self, length: int) -> np.ndarray:
        """Return the sorted distinct ``length``-bit key prefixes (cached)."""
        if not 0 <= length <= self.width:
            raise ValueError(f"prefix length {length} outside [0, {self.width}]")
        cached = self._prefix_cache.get(length)
        if cached is None:
            shift = self.width - length
            if self.is_vector:
                cached = np.unique(self.keys >> np.int64(shift)) if shift else self.keys
            else:
                cached = np.array(
                    sorted({key >> shift for key in self.keys.tolist()}), dtype=object
                )
            self._prefix_cache[length] = cached
        return cached

    def prefix_counts(self) -> list[int]:
        """Return ``counts`` with ``counts[l] == |K_l|`` (cached)."""
        if self._prefix_counts is None:
            if self.is_vector:
                self._prefix_counts = unique_prefix_counts_array(
                    self.keys, self.width
                ).tolist()
            else:
                self._prefix_counts = unique_prefix_counts(self.as_list(), self.width)
        return self._prefix_counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedKeySet(n={len(self)}, width={self.width})"


class QueryBatch:
    """A batch of inclusive ``[lo, hi]`` range queries over one key space."""

    __slots__ = ("width", "los", "his", "_validated")

    def __init__(self, los, his, width: int, validate: bool = True):
        if width <= 0:
            raise ValueError("key width must be positive")
        self.width = width
        if _is_vector_width(width):
            try:
                self.los = np.asarray(los, dtype=np.int64)
                self.his = np.asarray(his, dtype=np.int64)
            except (OverflowError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"query bound outside the {width}-bit key space"
                ) from exc
        else:
            self.los = np.array([int(lo) for lo in los], dtype=object)
            self.his = np.array([int(hi) for hi in his], dtype=object)
        if self.los.shape != self.his.shape or self.los.ndim != 1:
            raise ValueError("los and his must be parallel one-dimensional arrays")
        self._validated = len(self) == 0
        if validate and not self._validated:
            self._validate()

    def _validate(self) -> None:
        """Apply ``RangeFilter._check_range``'s rules (and messages) batch-wide.

        Sets ``_validated`` on success so deferred validation
        (``validate=False`` construction followed by
        :func:`coerce_query_batch`) runs at most once per batch.
        """
        top = (1 << self.width) - 1
        if self.is_vector:
            bad_order = self.los > self.his
            bad_bounds = (self.los < 0) | (self.his > top)
            bad = bad_order | bad_bounds
            if bad.any():
                # Report the *first* offending query, defect-checked in the
                # scalar _check_range order, so a mixed-defect batch raises
                # the same error a per-query loop would.
                index = int(np.argmax(bad))
                lo, hi = int(self.los[index]), int(self.his[index])
                if lo > hi:
                    raise ValueError(f"empty query range [{lo}, {hi}]")
                raise ValueError(
                    f"query range [{lo}, {hi}] outside the {self.width}-bit key space"
                )
        else:
            for lo, hi in zip(self.los.tolist(), self.his.tolist()):
                if lo > hi:
                    raise ValueError(f"empty query range [{lo}, {hi}]")
                if lo < 0 or hi > top:
                    raise ValueError(
                        f"query range [{lo}, {hi}] outside the {self.width}-bit key space"
                    )
        self._validated = True

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], width: int, validate: bool = True
    ) -> "QueryBatch":
        """Build a batch from an iterable of inclusive ``(lo, hi)`` pairs."""
        pairs = list(pairs)
        if not pairs:
            return cls([], [], width, validate=False)
        los, his = zip(*pairs)
        return cls(los, his, width, validate=validate)

    @classmethod
    def points(cls, keys: Iterable[int], width: int) -> "QueryBatch":
        """Build a batch of point queries ``(k, k)``."""
        keys = list(keys)
        return cls(keys, keys, width)

    @classmethod
    def from_raw(
        cls, pairs: Iterable[tuple], key_space: KeySpace
    ) -> "QueryBatch":
        """Encode raw-domain ``(lo, hi)`` pairs through ``key_space``."""
        encoded = [
            (key_space.encode(lo), key_space.encode(hi)) for lo, hi in pairs
        ]
        return cls.from_pairs(encoded, key_space.width)

    @property
    def is_vector(self) -> bool:
        """Whether the backing arrays support the numpy fast paths."""
        return self.los.dtype != object

    def __len__(self) -> int:
        return int(self.los.size)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the queries as ``(lo, hi)`` pairs of Python ints."""
        return zip(self.los.tolist(), self.his.tolist())

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self.pairs()

    def to_list(self) -> list[tuple[int, int]]:
        """Return the queries as a plain list of ``(lo, hi)`` pairs."""
        return list(self.pairs())

    def select(self, indices: np.ndarray) -> "QueryBatch":
        """Return the sub-batch selected by ``indices`` (boolean, integer or a slice).

        The sub-batch inherits this batch's validation state — selecting
        rows cannot introduce an invalid query — so consumers that carve
        one parent batch into many per-SST sub-batches (the LSM probe
        router) never pay for re-validation.
        """
        sub = type(self).__new__(type(self))
        sub.width = self.width
        sub.los = self.los[indices]
        sub.his = self.his[indices]
        sub._validated = self._validated
        return sub

    def spans(self) -> np.ndarray:
        """Return ``hi - lo + 1`` per query (the key count each covers).

        Returned as ``uint64``: the full-space query in a 63-bit space
        covers ``2**63`` keys, one past the int64 maximum.
        """
        if self.is_vector:
            return (self.his - self.los).astype(np.uint64) + np.uint64(1)
        return np.array(
            [hi - lo + 1 for lo, hi in self.pairs()], dtype=object
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryBatch(n={len(self)}, width={self.width})"


def coerce_query_batch(queries, width: int) -> QueryBatch:
    """Return ``queries`` as a :class:`QueryBatch` in a ``width``-bit space.

    An existing batch is passed through (its width must match); any iterable
    of ``(lo, hi)`` pairs is wrapped and validated.  A batch constructed
    with ``validate=False`` is validated here — once, the flag is sticky —
    so the vectorised ``may_intersect_many`` fast paths reject ``lo > hi``
    and out-of-width ranges with exactly the ``ValueError``s the scalar
    ``_check_range`` path raises.
    """
    if isinstance(queries, QueryBatch):
        if queries.width != width:
            raise ValueError(
                f"query batch width {queries.width} does not match filter width {width}"
            )
        if not queries._validated:
            queries._validate()
        return queries
    pairs = list(queries)
    if pairs and isinstance(pairs[0][0], (bytes, str, np.bytes_)):
        from repro.workloads.bytekeys import ByteQueryBatch

        return ByteQueryBatch.from_pairs(pairs, (width + 7) // 8)
    return QueryBatch.from_pairs(pairs, width)


def coerce_keys(keys, width: int | None = None) -> KeySet:
    """Single key-ingestion entry point: return ``keys`` as a :class:`KeySet`.

    Dispatches on the input representation — an existing :class:`KeySet`
    passes through (its width must match when one is given), byte/str keys
    become a :class:`~repro.workloads.bytekeys.ByteKeySet`, integers an
    :class:`EncodedKeySet` — with the same ``ValueError`` messages as the
    scalar entry points either way.
    """
    from repro.workloads.bytekeys import ByteKeySet

    if isinstance(keys, KeySet):
        if width is not None and keys.width != width:
            raise ValueError(
                f"key set width {keys.width} does not match filter width {width}"
            )
        return keys
    concrete = keys if isinstance(keys, np.ndarray) else list(keys)
    sample = concrete[0] if len(concrete) else None
    if isinstance(sample, (bytes, str, np.bytes_)):
        max_length = None if width is None else (width + 7) // 8
        return ByteKeySet(concrete, max_length=max_length)
    if width is None:
        raise ValueError("an explicit width is required for integer keys")
    return EncodedKeySet(concrete, width)


def probe_key_array(
    keys, width: int, expect_bytes: bool | None = None
) -> np.ndarray:
    """Probe keys as an array in a tree's native key order (lookup dispatch).

    The lookup-side counterpart of :func:`coerce_keys`: the same
    representation dispatch (byte/str probes become a canonical ``S``
    array in memcmp order, integers stay int64/object), but **order- and
    duplicate-preserving** — lookups are positional, so probes must never
    be sorted or deduplicated.  Byte probes longer than the key space
    raise (silent ``S``-dtype truncation could fabricate a membership
    answer for a key that cannot exist), and so do integer probes outside
    ``[0, 2**width)`` — this is the one place lookups validate, so the
    result's elements are canonical keys; ``expect_bytes`` lets a caller
    that knows its tree's representation reject mismatched probes with a
    clear error instead of a downstream dtype failure.
    """
    from repro.workloads.bytekeys import ByteKeySet, _clean_key

    num_bytes = (width + 7) // 8
    if isinstance(keys, KeySet):
        if keys.width != width:
            raise ValueError(
                f"key set width {keys.width} does not match probe width {width}"
            )
        if expect_bytes is not None and keys.is_bytes != expect_bytes:
            raise ValueError(
                "byte-keyed probes against an integer-keyed tree"
                if keys.is_bytes
                else "integer probes against a byte-keyed tree"
            )
        return keys.keys
    if isinstance(keys, np.ndarray) and keys.dtype.kind == "S":
        probes = [value.rstrip(b"\x00") for value in keys.tolist()]
    else:
        concrete = list(keys)
        if concrete and isinstance(concrete[0], (bytes, str, np.bytes_)):
            probes = [_clean_key(key) for key in concrete]
        else:
            if expect_bytes:
                raise ValueError("integer probes against a byte-keyed tree")
            probes = as_key_array(concrete)
            _check_int_probes(probes, width)
            return probes
    if expect_bytes is not None and not expect_bytes:
        raise ValueError("byte-keyed probes against an integer-keyed tree")
    longest = max((len(probe) for probe in probes), default=0)
    if longest > num_bytes:
        raise ValueError(f"key of length {longest} exceeds maximum {num_bytes}")
    return np.array(probes, dtype=f"S{num_bytes}")


def _check_int_probes(probes: np.ndarray, width: int) -> None:
    """Raise unless every integer probe lies in the ``width``-bit key space."""
    top = (1 << width) - 1
    if probes.dtype == object:
        bad = next((key for key in probes.tolist() if not 0 <= key <= top), None)
        if bad is None:
            return
    else:
        # Viewed as uint64, negative int64 probes exceed every limit up to
        # 2**63 - 1, so one comparison catches both ends of the space.
        outside = probes.view(np.uint64) > np.uint64(min(top, np.iinfo(np.int64).max))
        if not outside.any():
            return
        bad = int(probes[np.argmax(outside)])
    raise ValueError(f"key {bad} outside the {width}-bit key space")


def as_key_array(keys) -> np.ndarray:
    """Return ``keys`` as a 1-D numpy array (``int64`` when values fit).

    Accepts numpy arrays, any :class:`KeySet`, or any iterable of ints.
    The result is *not* deduplicated or validated — it is the probe-side
    helper for ``may_contain_many``, where duplicates are legitimate.
    Byte key sets go through their :meth:`~KeySet.as_ints` shim (this is a
    scalar-loop entry point, not a byte hot path).
    """
    if isinstance(keys, KeySet):
        return keys.as_ints()
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        return keys.astype(np.int64, copy=False)
    concrete = list(keys)
    try:
        return np.array(concrete, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return np.array(concrete, dtype=object)
