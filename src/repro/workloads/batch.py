"""Shared array representation for keys and query batches.

Every layer of the batched execution path speaks two types:

* :class:`EncodedKeySet` — a sorted, distinct, bounds-checked key set in a
  fixed-width integer key space, backed by an ``int64`` array;
* :class:`QueryBatch` — a batch of inclusive ``[lo, hi]`` range queries in
  the same space, backed by parallel ``int64`` ``los``/``his`` arrays (a
  point query is ``lo == hi``).

**One rule stores every integer key.**  A key set's kind decides first:
byte/str keys are :class:`~repro.workloads.bytekeys.ByteKeySet` at every
width.  Integer keys then go by width:

* up to 63 bits — the key itself, as ``int64``;
* 64 bits — offset binary, ``key - 2**63`` as ``int64`` (the *stored
  form*).  Signed order equals unsigned order; an arithmetic right shift
  maps an ``l``-bit prefix ``p`` to ``p - 2**(l - 1)``, one constant per
  length, so prefix order, distinctness, parents (``>> gap``) and block
  starts (``<< t``) carry over; and the XOR of two stored values equals
  the XOR of the keys, so LCPs do not change.  Every int64 kernel serves
  width 64 as it serves narrower spaces;
* wider — ``width // 8`` big-endian bytes (the width must be a whole
  number of bytes), i.e. a byte key set whose ``memcmp`` order is the
  integer order.

:func:`encode_ints` turns user integers into the stored form and
:func:`decode_ints` turns stored values back; every other module calls
these two.  Keys are encoded on the way in (the constructors, the
coercers, the probe helpers) and decoded on the way out
(:meth:`EncodedKeySet.as_list`, fences, :meth:`QueryBatch.pairs`);
inside, code reads the stored arrays.

Both types validate on construction with one set of rules and messages,
:func:`_check_pair`'s, so a batch handed to any filter or model is already
known to be well-formed (a filter's scalar probe is a one-row batch, so it
is checked by the same rules).  Stored arrays
that cross a boundary (a worker process, a merged run) are wrapped with the
``_trusted`` constructors, which neither check nor encode again.

Raw keys and bounds enter through :func:`coerce_keys` and
:func:`coerce_query_batch` alone, and :func:`stored_query_batch` is the one
place a batch is put into the representation a structure stores: byte
bounds against integer keys become the padded big-endian integers of
:meth:`~repro.workloads.bytekeys.ByteQueryBatch.pairs`, and integer bounds
against byte keys the bytes of those integers.  Filters, the CPFPR model,
the LSM tree and :class:`~repro.api.workload.Workload` all call it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.keys.lcp import unique_prefix_counts_array
from repro.workloads.keyset import KeySet

__all__ = [
    "EncodedKeySet",
    "QueryBatch",
    "coerce_keys",
    "coerce_query_batch",
    "decode_ints",
    "encode_ints",
    "int_key_bytes",
    "int_key_length",
    "probe_key_array",
    "slot_bounds",
    "stored_offset",
    "stored_query_batch",
]

#: Integer key spaces wider than this are stored as big-endian byte keys.
MAX_INT64_WIDTH = 64


def slot_bounds(
    los: np.ndarray,
    his: np.ndarray,
    width: int,
    prefix_len,
    max_probes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query prefix-slot interval and probe clamp: ``(plo, phi, clamped)``.

    ``plo``/``phi`` bound the ``prefix_len``-bit slots each ``[lo, hi]``
    covers; ``clamped`` marks queries spanning more than ``max_probes``
    slots (the filters answer those with a conservative True, and the CPFPR
    model charges them as certain positives).  ``prefix_len`` and
    ``max_probes`` may be per-query arrays.  The clamp reads the span
    ``phi - plo`` as ``uint64``: it never forms the slot count, which
    overflows on a full-space query at width 63, and the int64 difference
    of two stored width-64 prefixes wraps to exactly the unsigned span
    (a full-space query at ``l2 = 64`` would otherwise read as ``-1``).
    Every Bloom-layer consumer shares this helper so the overflow-sensitive
    idiom lives in exactly one place.
    """
    shift = np.int64(width) - prefix_len
    plo = los >> shift
    phi = his >> shift
    span = (phi - plo).view(np.uint64)
    return plo, phi, span >= np.asarray(max_probes, dtype=np.uint64)


# --------------------------------------------------------------------- #
# The stored form of integer keys                                       #
# --------------------------------------------------------------------- #


def stored_offset(width: int, length: int | None = None) -> int:
    """What the stored form subtracts from a key (or its ``length``-bit prefix).

    ``2**63`` from a width-64 key, ``2**(length - 1)`` from its
    ``length``-bit prefix, and 0 at every narrower width.
    """
    offset = 1 << 63 if width == MAX_INT64_WIDTH else 0
    return offset if length is None else offset >> (width - length)


def _first_outside(values, width: int):
    """The first value outside ``[0, 2**width)``, or ``None``."""
    top = (1 << width) - 1
    return next((value for value in values if not 0 <= int(value) <= top), None)


def _outside(value, width: int) -> ValueError:
    return ValueError(f"key {value} outside the {width}-bit key space")


def encode_ints(values, width: int, check: bool = True):
    """User integers in their stored form (key spaces of at most 64 bits).

    One ``int`` maps to one ``int`` (``key - 2**63`` at width 64, the key
    itself below); anything else — a numpy integer array or any iterable
    of ints — to an ``int64`` array, in order, duplicates kept.  With
    ``check`` every value must lie in ``[0, 2**width)``; without it only
    values the stored form cannot hold raise (below 64 bits, others pass
    through for a later range check).  Either way the ``ValueError`` names
    the user's value, never a wrapped one.
    """
    offset = stored_offset(width)
    if isinstance(values, (int, np.integer)):
        return int(values) - offset
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        arr = values
    else:
        if not isinstance(values, (list, tuple, np.ndarray)):
            values = list(values)
        try:
            # At width 64 the natural dtype comes first, so negative numpy
            # scalars stay negative; ints past int64 come back as object.
            arr = np.asarray(values, dtype=None if offset else np.int64)
            if arr.dtype.kind not in "iu":
                arr = np.asarray(values, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            bad = _first_outside(values, width)
            if bad is None:
                raise
            raise _outside(bad, width) from None
        if not (check or offset):
            return arr  # already int64, and nothing to check
    if arr.dtype == np.uint64:
        limit = (1 << width) - 1 if check or offset else np.iinfo(np.int64).max
        bad = arr > np.uint64(limit)
    else:
        arr = arr.astype(np.int64, copy=False)
        bad = arr < 0 if check or offset else None
        if check and not offset:
            bad |= arr > (1 << width) - 1
    if bad is not None and bad.any():
        raise _outside(int(arr[np.argmax(bad)]), width)
    if offset:
        return (arr.astype(np.uint64) ^ np.uint64(offset)).view(np.int64)
    return arr.astype(np.int64, copy=False)


def decode_ints(values, width: int, length: int | None = None):
    """The user's integers behind stored values: adds ``2**63`` back at width 64.

    ``length`` reads the values as stored ``length``-bit prefixes (adding
    ``2**(length - 1)``).  One ``int`` maps to one ``int``; an array maps
    to a ``uint64`` array at width 64 and to itself below.  Every
    rendering of stored values as unsigned integers or big-endian bytes
    goes through here.
    """
    offset = stored_offset(width, length)
    if not isinstance(values, np.ndarray):
        return int(values) + offset
    if not offset:
        return values
    return values.astype(np.uint64) + np.uint64(offset)


def int_key_length(width: int) -> int:
    """Bytes per key of a wider-than-64-bit integer space (``width // 8``)."""
    if width % 8:
        raise ValueError(
            f"a {width}-bit integer key space is not a whole number of bytes; "
            f"integer keys wider than {MAX_INT64_WIDTH} bits are stored as bytes"
        )
    return width // 8


def int_key_bytes(values, width: int) -> list[bytes]:
    """Integer keys of a wider-than-64-bit space as canonical byte keys.

    Each key becomes its ``width // 8`` big-endian bytes with trailing
    nulls stripped, the form every byte key set holds, so coercion, query
    batches, probes and the memtable agree on the bytes of an integer.
    """
    length = int_key_length(width)
    out = []
    for value in values:
        value = int(value)
        if not 0 <= value < 1 << width:
            raise _outside(value, width)
        out.append(value.to_bytes(length, "big").rstrip(b"\x00"))
    return out


def _check_int_width(width: int, kind: str, coercer: str) -> None:
    if width <= 0:
        raise ValueError("key width must be positive")
    if width > MAX_INT64_WIDTH:
        raise ValueError(
            f"{kind} holds int64 keys of at most {MAX_INT64_WIDTH} bits; "
            f"{coercer} stores {width}-bit integers as byte keys"
        )


class EncodedKeySet(KeySet):
    """A sorted distinct key set in a ``width``-bit space, as an int64 array.

    ``keys`` holds the stored form (see the module docstring): sorted,
    distinct and bounds-checked, so every consumer can skip its own
    validation.  Widths above 64 bits raise; :func:`coerce_keys` turns
    such integers into a byte key set.
    """

    __slots__ = ("width", "keys", "_prefix_cache", "_prefix_counts")

    def __init__(self, keys: Iterable[int], width: int):
        _check_int_width(width, "EncodedKeySet", "coerce_keys")
        self.width = width
        self.keys = np.unique(encode_ints(keys, width))
        self._prefix_cache: dict[int, np.ndarray] = {}
        self._prefix_counts: list[int] | None = None

    def __len__(self) -> int:
        return int(self.keys.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.as_list())

    def as_list(self) -> list[int]:
        """Return the keys as a plain sorted list of the user's ints."""
        return decode_ints(self.keys, self.width).tolist()

    def as_scalar(self, value) -> int:
        """The user's int behind one stored element of :attr:`keys`."""
        return decode_ints(int(value), self.width)

    @classmethod
    def _trusted(cls, arr: np.ndarray, width: int) -> "EncodedKeySet":
        """Wrap a stored array already known to be sorted, distinct and in-bounds.

        The internal constructor behind :meth:`slice`, merges and the
        shared-memory snapshot: no validation, no encoding, no copy —
        ``arr`` is adopted as the backing store, so the caller vouches for
        the invariants.
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
        """Return the sorted distinct stored ``length``-bit prefixes (cached).

        The empty prefix is never formed by a shift: numpy's ``x >> 64``
        is undefined, and the stored empty prefix is 0 at every width.
        """
        if not 0 <= length <= self.width:
            raise ValueError(f"prefix length {length} outside [0, {self.width}]")
        cached = self._prefix_cache.get(length)
        if cached is None:
            if length == 0:
                cached = np.zeros(min(self.keys.size, 1), dtype=np.int64)
            elif length == self.width:
                cached = self.keys
            else:
                cached = np.unique(self.keys >> np.int64(self.width - length))
            self._prefix_cache[length] = cached
        return cached

    def prefix_counts(self) -> list[int]:
        """Return ``counts`` with ``counts[l] == |K_l|`` (cached)."""
        if self._prefix_counts is None:
            self._prefix_counts = unique_prefix_counts_array(
                self.keys, self.width
            ).tolist()
        return self._prefix_counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedKeySet(n={len(self)}, width={self.width})"


class QueryBatch:
    """A batch of inclusive ``[lo, hi]`` range queries over one key space.

    ``los``/``his`` hold the stored form; :meth:`pairs` gives the user's
    bounds back.  Widths above 64 bits raise; :func:`coerce_query_batch`
    turns such bounds into a byte batch.
    """

    __slots__ = ("width", "los", "his")

    def __init__(self, los, his, width: int):
        _check_int_width(width, "QueryBatch", "coerce_query_batch")
        self.width = width
        if not isinstance(los, (list, tuple, np.ndarray)):
            los = list(los)
        if not isinstance(his, (list, tuple, np.ndarray)):
            his = list(his)
        try:
            self.los = encode_ints(los, width, check=False)
            self.his = encode_ints(his, width, check=False)
        except ValueError:
            # A bound the stored form cannot hold: report the first bad
            # query exactly as _check_pair words it.
            for lo, hi in zip(np.asarray(los).tolist(), np.asarray(his).tolist()):
                _check_pair(lo, hi, width)
            raise
        if self.los.shape != self.his.shape or self.los.ndim != 1:
            raise ValueError("los and his must be parallel one-dimensional arrays")
        self._validate()

    @classmethod
    def _trusted(cls, los: np.ndarray, his: np.ndarray, width: int) -> "QueryBatch":
        """Wrap stored bound arrays carved out of a validated batch.

        No encoding and no validation: the boundary constructor for bounds
        that already are a batch's stored arrays (a worker's sub-batch).
        """
        batch = cls.__new__(cls)
        batch.width = width
        batch.los = los
        batch.his = his
        return batch

    def _validate(self) -> None:
        """Apply :func:`_check_pair`'s rules (and messages) batch-wide.

        Stored width-64 bounds are always inside the space, and their
        order is the user's order.
        """
        bad = self.los > self.his
        if self.width < MAX_INT64_WIDTH:
            bad |= (self.los < 0) | (self.his > (1 << self.width) - 1)
        if bad.any():
            # Report the *first* offending query, defect-checked in
            # _check_pair's order, so a mixed-defect batch raises the
            # same error a per-query loop would.
            index = int(np.argmax(bad))
            _check_pair(
                decode_ints(int(self.los[index]), self.width),
                decode_ints(int(self.his[index]), self.width),
                self.width,
            )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], width: int) -> "QueryBatch":
        """Build a batch from an iterable of inclusive ``(lo, hi)`` pairs."""
        pairs = list(pairs)
        if not pairs:
            return cls([], [], width)
        los, his = zip(*pairs)
        return cls(los, his, width)

    @classmethod
    def points(cls, keys: Iterable[int], width: int) -> "QueryBatch":
        """Build a batch of point queries ``(k, k)``."""
        keys = list(keys)
        return cls(keys, keys, width)

    def __len__(self) -> int:
        return int(self.los.size)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the queries as ``(lo, hi)`` pairs of the user's ints."""
        return zip(
            decode_ints(self.los, self.width).tolist(),
            decode_ints(self.his, self.width).tolist(),
        )

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self.pairs()

    def to_list(self) -> list[tuple[int, int]]:
        """Return the queries as a plain list of ``(lo, hi)`` pairs."""
        return list(self.pairs())

    def select(self, indices: np.ndarray) -> "QueryBatch":
        """Return the sub-batch selected by ``indices`` (boolean, integer or a slice).

        Selecting rows of a validated batch cannot introduce an invalid
        query, so the sub-batch is wrapped with :meth:`_trusted` and
        consumers that carve one parent batch into many per-SST
        sub-batches (the LSM probe router) never pay for re-validation.
        """
        return type(self)._trusted(self.los[indices], self.his[indices], self.width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryBatch(n={len(self)}, width={self.width})"


def _check_pair(lo: int, hi: int, width: int) -> None:
    """The range check of every probe, on one pair of the user's bounds."""
    if lo > hi:
        raise ValueError(f"empty query range [{lo}, {hi}]")
    if lo < 0 or hi >= 1 << width:
        raise ValueError(f"query range [{lo}, {hi}] outside the {width}-bit key space")


def coerce_query_batch(queries, width: int) -> QueryBatch:
    """Return ``queries`` as a :class:`QueryBatch` in a ``width``-bit space.

    An existing batch is passed through (its width must match; it was
    validated when it was built); any iterable of ``(lo, hi)`` pairs is
    wrapped and validated — byte/str bounds, and integer bounds wider than
    64 bits, as a :class:`~repro.workloads.bytekeys.ByteQueryBatch` — so
    every ``may_intersect_many`` rejects ``lo > hi`` and out-of-width ranges
    with exactly the ``ValueError``s of :func:`_check_pair`.
    """
    if isinstance(queries, QueryBatch):
        if queries.width != width:
            raise ValueError(
                f"query batch width {queries.width} does not match filter width {width}"
            )
        return queries
    pairs = list(queries)
    byte_bounds = bool(pairs) and isinstance(pairs[0][0], (bytes, str, np.bytes_))
    if byte_bounds or width > MAX_INT64_WIDTH:
        from repro.workloads.bytekeys import ByteQueryBatch

        if byte_bounds:
            return ByteQueryBatch.from_pairs(pairs, (width + 7) // 8)
        # Check the user's integers, so errors name them, not their bytes.
        for lo, hi in pairs:
            _check_pair(lo, hi, width)
        return ByteQueryBatch.from_pairs(pairs, int_key_length(width))
    return QueryBatch.from_pairs(pairs, width)


def stored_query_batch(queries, width: int, is_bytes: bool) -> QueryBatch:
    """``queries`` as a validated batch in the representation keys are stored in.

    ``is_bytes`` says whether the structure holds byte keys; it is not
    implied by ``width``, as a 48-bit space holds 6-byte strings or 48-bit
    integers alike.  Integer bounds against byte keys are padded big-endian
    integers and become a :class:`~repro.workloads.bytekeys.ByteQueryBatch`
    of their bytes; byte bounds against integer keys become the padded
    integers of :meth:`~repro.workloads.bytekeys.ByteQueryBatch.pairs`.
    """
    from repro.workloads.bytekeys import ByteQueryBatch

    batch = coerce_query_batch(queries, width)
    if is_bytes == isinstance(batch, ByteQueryBatch):
        return batch
    pairs = list(batch.pairs())
    if is_bytes:
        return ByteQueryBatch.from_pairs(pairs, (width + 7) // 8)
    return QueryBatch.from_pairs(pairs, width)


def coerce_keys(keys, width: int | None = None) -> KeySet:
    """Single key-ingestion entry point: return ``keys`` as a :class:`KeySet`.

    Dispatches on the input's kind, then its width: an existing
    :class:`KeySet` passes through (its width must match when one is
    given), byte/str keys become a
    :class:`~repro.workloads.bytekeys.ByteKeySet` at any width, integers an
    :class:`EncodedKeySet` up to 64 bits and a ``ByteKeySet`` of their
    big-endian bytes (:func:`int_key_bytes`) beyond.
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
    if width > MAX_INT64_WIDTH:
        return ByteKeySet(int_key_bytes(concrete, width), max_length=width // 8)
    return EncodedKeySet(concrete, width)


def probe_key_array(
    keys, width: int, expect_bytes: bool | None = None
) -> np.ndarray:
    """Probe keys as an array in a tree's stored key order (lookup dispatch).

    The lookup-side counterpart of :func:`coerce_keys`: the same
    representation dispatch (byte/str probes, and integer probes wider
    than 64 bits, become a canonical ``S`` array in memcmp order; other
    integers the int64 stored form), but **order- and
    duplicate-preserving** — lookups are positional, so probes must never
    be sorted or deduplicated.  Byte probes longer than the key space
    raise (silent ``S``-dtype truncation could fabricate a membership
    answer for a key that cannot exist), and so do integer probes outside
    ``[0, 2**width)`` — this is the one place lookups validate, so the
    result's elements are canonical keys; ``expect_bytes`` lets a caller
    that knows its tree's representation reject mismatched probes with a
    clear error instead of a downstream dtype failure.
    """
    from repro.workloads.bytekeys import _clean_key

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
        concrete = keys if isinstance(keys, np.ndarray) else list(keys)
        if len(concrete) and isinstance(concrete[0], (bytes, str, np.bytes_)):
            probes = [_clean_key(key) for key in concrete]
        elif width > MAX_INT64_WIDTH:
            probes = int_key_bytes(concrete, width)
        else:
            if expect_bytes:
                raise ValueError("integer probes against a byte-keyed tree")
            return encode_ints(concrete, width)
    if expect_bytes is not None and not expect_bytes:
        raise ValueError("byte-keyed probes against an integer-keyed tree")
    longest = max((len(probe) for probe in probes), default=0)
    if longest > num_bytes:
        raise ValueError(f"key of length {longest} exceeds maximum {num_bytes}")
    return np.array(probes, dtype=f"S{num_bytes}")
