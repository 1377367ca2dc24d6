"""The range-filter interface and the exact ground-truth oracle.

Every filter in :mod:`repro.filters` and :mod:`repro.core` implements
:class:`RangeFilter`: an immutable structure built over a set of keys in a
``width``-bit space (integers, or byte strings whose padded big-endian
integers are the keys, see :mod:`repro.workloads.batch`) that answers, per
query of a batch, does the inclusive range ``[lo, hi]`` contain a key
(``may_intersect_many``) — with *no false negatives*: a ``False`` answer is
definite, a ``True`` answer may be wrong with some false positive rate.
Point queries are the ranges ``[k, k]`` and scalar probes one-row batches
(``may_contain``, ``may_intersect``, ``may_contain_many``), defined once in
the base class.  :class:`TrieOracle` is the one filter with a zero false
positive rate — it keeps the key set's sorted stored array and answers
every probe by binary search — and serves as the ground truth the
randomized test-suite checks every probabilistic filter against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from repro.workloads.batch import (
    MAX_INT64_WIDTH,
    QueryBatch,
    coerce_keys,
    coerce_query_batch,
    stored_query_batch,
)
from repro.workloads.bytekeys import ByteQueryBatch
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
    :class:`~repro.workloads.keyset.KeySet`, or a raw iterable, which
    :func:`~repro.workloads.batch.coerce_keys` takes in a ``width``-bit
    space from the workload (the LSM per-SST case: one workload, many raw
    key subsets), the ``width`` spec parameter, or the 64-bit default; raw
    byte/str keys without a workload size their own space.  The bit budget
    is ``bits_per_key`` times the number of *distinct* keys (at least 1
    bit).
    """
    if keys is None:
        if workload is None:
            raise ValueError("from_spec needs keys, a workload, or both")
        key_set = workload.keys
    elif isinstance(keys, KeySet):
        key_set = keys
    else:
        concrete = keys if isinstance(keys, np.ndarray) else list(keys)
        if workload is not None:
            width = workload.width
        elif spec.params.get("width") is not None:
            width = int(spec.params["width"])
        else:
            # Byte keys size their own space; integers take the default.
            sample = concrete[0] if len(concrete) else None
            raw_bytes = isinstance(sample, (bytes, str, np.bytes_))
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


class RangeFilter(ABC):
    """An approximate range-membership structure with no false negatives.

    A family implements one probe, :meth:`may_intersect_many`; a point
    query is the range ``[k, k]`` and a scalar probe a one-row batch, both
    defined here once.  Probes take integer or byte/str bounds whatever
    the filter stores, and :meth:`_batch` puts them in its representation
    (an integer against byte keys is a padded big-endian integer), so a
    scalar probe answers and raises exactly as its one-row batch.
    """

    #: Number of bits in the integer view of a key.
    width: int
    #: Number of distinct keys the filter was built over.
    num_keys: int
    #: Whether the filter was built over byte keys; its integer probes are
    #: then padded big-endian integers, never the int64 stored form.
    is_bytes: bool = False

    @abstractmethod
    def may_intersect_many(self, queries) -> np.ndarray:
        """Per query, False only if ``[lo, hi]`` definitely contains no key.

        Accepts a :class:`~repro.workloads.batch.QueryBatch` or any
        iterable of inclusive ``(lo, hi)`` pairs, integer or byte/str
        bounds (see :meth:`_batch`); returns one boolean per query, in
        order.
        """

    def may_intersect(self, lo, hi) -> bool:
        """Return False only if ``[lo, hi]`` definitely contains no key."""
        return bool(self.may_intersect_many([(lo, hi)])[0])

    def may_contain(self, key) -> bool:
        """Return False only if ``key`` is definitely not in the key set."""
        return self.may_intersect(key, key)

    def may_contain_many(self, keys) -> np.ndarray:
        """Per-key :meth:`may_contain` over a batch: the point batch ``[k, k]``.

        Accepts a :class:`~repro.workloads.keyset.KeySet` (its stored keys,
        never encoded again), an integer or ``S`` array, or any iterable of
        keys; returns one boolean per input key, in order.
        """
        if isinstance(keys, KeySet):
            arr = keys.keys
            kind = ByteQueryBatch if keys.is_bytes else QueryBatch
            batch = kind._trusted(arr, arr, keys.width)
        elif isinstance(keys, np.ndarray) and keys.dtype.kind == "S":
            batch = ByteQueryBatch(keys, keys, (self.width + 7) // 8)
        elif isinstance(keys, np.ndarray) and keys.dtype.kind in "iu" and (
            self.width <= MAX_INT64_WIDTH
        ):
            batch = QueryBatch(keys, keys, self.width)
        else:
            keys = list(keys)
            batch = coerce_query_batch(zip(keys, keys), self.width)
        return self.may_intersect_many(batch)

    def _batch(self, queries) -> QueryBatch:
        """``queries`` as a validated batch in the representation the filter stores.

        See :func:`~repro.workloads.batch.stored_query_batch`.
        """
        return stored_query_batch(queries, self.width, self.is_bytes)

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

    def __contains__(self, key: int) -> bool:
        return self.may_contain(key)


class TrieOracle(RangeFilter):
    """Exact range filter: zero false positives *and* zero false negatives.

    Stores every key, unabridged: the key set's sorted stored array (``int64``
    or padded ``S`` dtype, both of which sort in key order), searched by one
    ``searchsorted`` per batch.  Its answers define correctness for every
    other filter: ``other.may_*`` must be ``True`` whenever the oracle's
    is.
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

    def may_intersect_many(self, queries) -> np.ndarray:
        """Whether each ``[lo, hi]`` holds a key: the first key >= lo is <= hi."""
        batch = self._batch(queries)
        if not self.num_keys:
            return np.zeros(len(batch), dtype=bool)
        index = np.searchsorted(self._sorted, batch.los)
        return (index < self.num_keys) & (self._sorted.take(index, mode="clip") <= batch.his)

    def size_in_bits(self) -> int:
        # The oracle stores every key verbatim; charge the raw key bits.
        return self.num_keys * self.width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrieOracle(keys={self.num_keys}, width={self.width})"
