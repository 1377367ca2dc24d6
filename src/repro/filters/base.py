"""The range-filter interface and the exact ground-truth oracle.

Every filter in :mod:`repro.filters` and :mod:`repro.core` implements
:class:`RangeFilter`: an immutable structure built over a set of keys
(``width``-bit unsigned integers, see :mod:`repro.keys`) that answers

* ``may_contain(key)`` — point-membership, and
* ``may_intersect(lo, hi)`` — does the inclusive range ``[lo, hi]`` contain
  a key?

with *no false negatives*: a ``False`` answer is definite, a ``True`` answer
may be wrong with some false positive rate.  :class:`TrieOracle` is the one
filter with a zero false positive rate — it keeps the key set's sorted
stored array and answers every probe by binary search — and serves as the
ground truth the randomized test-suite checks every probabilistic filter
against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from repro.keys.keyspace import KeySpace
from repro.workloads.batch import (
    as_key_array,
    coerce_keys,
    coerce_query_batch,
    encode_ints,
)
from repro.workloads.keyset import KeySet

#: Key width assumed by ``from_spec`` when neither a workload, an
#: :class:`EncodedKeySet`, nor a ``width`` spec parameter pins one — the
#: paper's 64-bit integer setting.
DEFAULT_SPEC_WIDTH = 64


def check_spec_params(spec, allowed: Iterable[str]) -> dict:
    """Validate a :class:`~repro.api.spec.FilterSpec`'s family parameters.

    Rejects unknown parameter names (the registry protocol's typo guard) and
    returns the parameters as a plain mutable dict.  ``width`` is accepted
    for every family — it pins the key width when no workload or encoded key
    set supplies one.
    """
    permitted = set(allowed) | {"width"}
    unknown = sorted(set(spec.params) - permitted)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for filter family {spec.family!r}; "
            f"allowed: {sorted(permitted)}"
        )
    return dict(spec.params)


def resolve_spec_inputs(spec, keys, workload) -> tuple[KeySet, int]:
    """Resolve the shared ``from_spec`` inputs: ``(key_set, total_bits)``.

    ``keys`` may be ``None`` (build over the workload's key set), any
    :class:`~repro.workloads.keyset.KeySet`, or a raw iterable — raw
    integer keys are encoded through the workload's key space when one is
    attached (the LSM per-SST case: one workload, many raw key subsets),
    otherwise interpreted as already encoded in a ``width``-bit space taken
    from the workload, the ``width`` spec parameter, or the 64-bit default;
    raw byte/str keys become a :class:`~repro.workloads.ByteKeySet`
    directly.  The bit budget is ``bits_per_key`` times the number of
    *distinct* keys (at least 1 bit).
    """
    if keys is None:
        if workload is None:
            raise ValueError("from_spec needs keys, a workload, or both")
        key_set = workload.keys
    elif isinstance(keys, KeySet):
        key_set = keys
    else:
        concrete = keys if isinstance(keys, np.ndarray) else list(keys)
        sample = concrete[0] if len(concrete) else None
        raw_bytes = isinstance(sample, (bytes, str, np.bytes_))
        if workload is not None:
            width = workload.width
            if workload.key_space is not None and not raw_bytes:
                concrete = workload.key_space.encode_many(concrete)
        else:
            param = spec.params.get("width")
            if param is not None:
                width = int(param)
            else:
                # Byte keys size their own space; integers take the default.
                width = None if raw_bytes else DEFAULT_SPEC_WIDTH
        key_set = coerce_keys(concrete, width)
    if workload is not None and workload.width != key_set.width:
        raise ValueError(
            f"key set width {key_set.width} does not match "
            f"workload width {workload.width}"
        )
    spec_width = spec.params.get("width")
    if spec_width is not None and int(spec_width) != key_set.width:
        raise ValueError(
            f"spec width {spec_width} conflicts with the resolved "
            f"key set width {key_set.width}"
        )
    total_bits = max(1, int(spec.bits_per_key * len(key_set)))
    return key_set, total_bits


def ragged_ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-query integer ranges into one probe array plus segment starts.

    Given ``starts[i]`` and ``lengths[i] >= 1`` this returns ``(flat,
    seg_starts)`` where ``flat`` concatenates ``range(starts[i], starts[i] +
    lengths[i])`` for every ``i`` and ``seg_starts[i]`` is the offset of
    segment ``i`` in ``flat`` — the layout ``np.logical_or.reduceat`` needs
    to fold per-probe answers back into per-query answers.
    """
    lengths = lengths.astype(np.int64, copy=False)
    seg_ends = np.cumsum(lengths)
    seg_starts = seg_ends - lengths
    total = int(seg_ends[-1]) if lengths.size else 0
    offsets = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lengths)
    flat = np.repeat(starts.astype(np.int64, copy=False), lengths) + offsets
    return flat, seg_starts


def key_to_bytes(key: int, width: int) -> bytes:
    """Render a ``width``-bit user key as big-endian bytes (MSB-padded to bytes).

    Padding the *top* of the integer to a whole number of bytes preserves
    both ordering and prefix structure, so byte-granular tries remain exact
    for widths that are not byte multiples.  Stored keys go through
    :func:`~repro.workloads.batch.decode_ints` first.
    """
    num_bytes = (width + 7) // 8
    return key.to_bytes(num_bytes, "big")


class RangeFilter(ABC):
    """An approximate range-membership structure with no false negatives."""

    #: Number of bits in the integer view of a key.
    width: int
    #: Number of distinct keys the filter was built over.
    num_keys: int
    #: Optional :class:`~repro.keys.keyspace.KeySpace` set by self-designing
    #: builders; when present, raw-domain queries are encoded through it.
    key_space: KeySpace | None = None
    #: Whether the filter was built over byte keys; its scalar probes are
    #: then padded big-endian integers, never the int64 stored form.
    is_bytes: bool = False

    def _encode(self, key) -> int:
        """One probe key in the form the filter stores (width 64: ``key - 2**63``)."""
        if self.key_space is not None:
            key = self.key_space.encode(key)
        return key if self.is_bytes else encode_ints(key, self.width)

    def _encode_range(self, lo, hi) -> tuple[int, int]:
        """Check ``[lo, hi]`` on the user's bounds, then encode both once."""
        if self.key_space is not None:
            lo, hi = self.key_space.encode(lo), self.key_space.encode(hi)
        self._check_range(lo, hi)
        if self.is_bytes:
            return lo, hi
        return encode_ints(lo, self.width), encode_ints(hi, self.width)

    @abstractmethod
    def may_contain(self, key: int) -> bool:
        """Return False only if ``key`` is definitely not in the key set."""

    @abstractmethod
    def may_intersect(self, lo: int, hi: int) -> bool:
        """Return False only if ``[lo, hi]`` definitely contains no key."""

    # ------------------------------------------------------------------ #
    # Batch API                                                          #
    # ------------------------------------------------------------------ #
    #
    # Both batch methods take keys in the integer view of the filter's key
    # space (or a KeySet / QueryBatch already in its stored form) and
    # return a boolean numpy array aligned with the input.  The base
    # implementations loop over the scalar methods, so third-party
    # subclasses inherit correct (if unaccelerated) batch behaviour for
    # free; the filters in this repository override them with vectorised
    # paths.

    def may_contain_many(self, keys) -> np.ndarray:
        """Per-key :meth:`may_contain` over a batch of keys.

        Accepts a numpy array, a :class:`~repro.workloads.keyset.KeySet`,
        or any iterable of keys; returns one boolean per input key, in
        order.
        """
        if isinstance(keys, KeySet):
            probes = keys.as_list()
        else:
            probes = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        return np.fromiter(
            (self.may_contain(key) for key in probes),
            dtype=bool,
            count=len(probes),
        )

    def may_intersect_many(self, queries) -> np.ndarray:
        """Per-query :meth:`may_intersect` over a batch of range queries.

        Accepts a :class:`~repro.workloads.batch.QueryBatch` or any
        iterable of inclusive ``(lo, hi)`` pairs; returns one boolean per
        query, in order.
        """
        batch = coerce_query_batch(queries, self.width)
        return np.fromiter(
            (self.may_intersect(lo, hi) for lo, hi in batch.pairs()),
            dtype=bool,
            count=len(batch),
        )

    @abstractmethod
    def size_in_bits(self) -> int:
        """Return the filter's payload footprint in bits."""

    def bits_per_key(self) -> float:
        """Return the payload footprint divided by the number of keys."""
        return self.size_in_bits() / self.num_keys if self.num_keys else 0.0

    def size_breakdown(self) -> dict[str, int]:
        """Return the charged footprint per component, in bits.

        The values always sum to :meth:`size_in_bits` — that identity is what
        lets the LSM cost accounting sum per-SST filters into per-level
        memory without knowing any family's internals.  Single-component
        filters report one ``"total"`` entry; layered families override this
        with one entry per layer.
        """
        return {"total": self.size_in_bits()}

    def _check_range(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        if lo < 0 or hi >= (1 << self.width):
            raise ValueError(
                f"query range [{lo}, {hi}] outside the {self.width}-bit key space"
            )

    def __contains__(self, key: int) -> bool:
        return self.may_contain(key)


class TrieOracle(RangeFilter):
    """Exact range filter: zero false positives *and* zero false negatives.

    Stores every key, unabridged: the key set's sorted stored array (``int64``
    or padded ``S`` dtype, both of which sort in key order), searched by
    ``searchsorted`` for scalar and batched probes alike.  Its answers define
    correctness for every other filter: ``other.may_*`` must be ``True``
    whenever the oracle's is.
    """

    def __init__(self, keys, width: int):
        if width <= 0:
            raise ValueError("key width must be positive")
        self.width = width
        key_set = coerce_keys(keys, width)
        self.num_keys = len(key_set)
        self.is_bytes = key_set.is_bytes
        self._sorted = key_set.keys

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None) -> "TrieOracle":
        """Registry protocol: build the exact oracle (budget-free ground truth).

        The oracle stores every key verbatim, so ``spec.bits_per_key`` is
        ignored — it is registered ``budget_free`` and the sweep driver uses
        it only as ground truth, never as a curve.
        """
        check_spec_params(spec, ())
        key_set, _ = resolve_spec_inputs(spec, keys, workload)
        return cls(key_set, key_set.width)

    def _probe(self, key) -> np.ndarray:
        """One scalar probe as a one-element array in the stored form.

        Integer keys are encoded once (:func:`~repro.workloads.batch.
        encode_ints`); a byte key set's probes are padded big-endian
        integers, rendered into the array's ``S`` dtype.
        """
        if self.is_bytes:
            return np.array([key_to_bytes(key, self.width)], dtype=self._sorted.dtype)
        return np.array([encode_ints(key, self.width)], dtype=np.int64)

    def _contains(self, probes: np.ndarray) -> np.ndarray:
        """Whether each stored-form probe is a stored key."""
        if not self.num_keys:
            return np.zeros(probes.size, dtype=bool)
        index = np.searchsorted(self._sorted, probes)
        return (index < self.num_keys) & (self._sorted.take(index, mode="clip") == probes)

    def _intersects(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Whether each stored-form ``[lo, hi]`` holds a key: the first key >= lo is <= hi."""
        if not self.num_keys:
            return np.zeros(los.size, dtype=bool)
        index = np.searchsorted(self._sorted, los)
        return (index < self.num_keys) & (self._sorted.take(index, mode="clip") <= his)

    def may_contain(self, key: int) -> bool:
        return bool(self._contains(self._probe(key))[0])

    def may_intersect(self, lo: int, hi: int) -> bool:
        self._check_range(lo, hi)
        return bool(self._intersects(self._probe(lo), self._probe(hi))[0])

    def may_contain_many(self, keys) -> np.ndarray:
        if not self.is_bytes:
            return self._contains(as_key_array(keys, self.width))
        # Byte mode: probe the padded S-dtype view (memcmp == key order).
        arr = keys.keys if isinstance(keys, KeySet) else np.asarray(keys)
        if arr.dtype.kind != "S":
            return super().may_contain_many(keys)  # padded big-integer probes
        return self._contains(arr)

    def may_intersect_many(self, queries) -> np.ndarray:
        batch = coerce_query_batch(queries, self.width)
        if self.is_bytes != (batch.los.dtype.kind == "S"):
            return super().may_intersect_many(batch)  # padded big-integer bounds
        return self._intersects(batch.los, batch.his)

    def size_in_bits(self) -> int:
        # The oracle stores every key verbatim; charge the raw key bits.
        return self.num_keys * self.width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrieOracle(keys={self.num_keys}, width={self.width})"
