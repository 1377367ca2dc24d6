"""SuRF-Base on the succinct trie.

SuRF (Zhang et al., SIGMOD 2018) is the trie-only baseline Proteus is
measured against.  SuRF-Base prunes each key's branch at its *minimum
distinguishing prefix* — the shortest prefix no other key shares — and
answers both point and range queries by trie traversal alone.  Because every
stored prefix covers its key's full subtree, false negatives are impossible;
false positives arise whenever a query hits a pruned subtree that contains
no key.

The pruned prefix set is computed vectorised (numpy LCPs over the stored
keys + per-depth prefix dedup; bit-identity to the per-key reference loop
is pinned in ``tests/test_batch_parity.py``) and encoded as a
:class:`~repro.trie.fst.FastSuccinctTrie` (LOUDS-Dense top + LOUDS-Sparse
bottom at the footprint-minimising cutoff), built straight from the sorted
prefix list by :meth:`FastSuccinctTrie.from_sorted_prefix_bytes` (one
``repro.kernels.trie_levels`` pass).  Probes are level-synchronous batch
walks of the succinct structure; a point query is the range ``[k, k]``.
``size_in_bits()`` is the size model's LOUDS-DS estimate
(:meth:`FastSuccinctTrie.modelled_size_in_bits`), the paper's accounting;
the trie's measured bits are ``surf.trie.size_in_bits()``, which
:mod:`repro.evaluation.size_check` holds within a documented tolerance of
the estimate.

``max_depth`` caps the trie depth in bytes — the knob the paper turns to
trade SuRF's memory against its FPR.  Prefixes truncated by the cap may
collide across keys; the bulk build keeps the shorter (covering) prefix of
two that nest, which preserves zero false negatives.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.filters.base import RangeFilter, check_spec_params, resolve_spec_inputs
from repro.keys.bytestr import unique_rows
from repro.keys.lcp import min_distinguishing_prefix_lengths_array
from repro.trie.fst import FastSuccinctTrie
from repro.workloads.batch import EncodedKeySet, coerce_keys, decode_ints
from repro.workloads.bytekeys import ByteKeySet


class SuRF(RangeFilter):
    """SuRF-Base: a pruned trie of minimum distinguishing key prefixes."""

    def __init__(self, keys: Iterable[int], width: int, max_depth: int | None = None):
        if width <= 0:
            raise ValueError("key width must be positive")
        self.width = width
        num_bytes = (width + 7) // 8
        if max_depth is None:
            max_depth = num_bytes
        if not 1 <= max_depth <= num_bytes:
            raise ValueError(f"trie depth {max_depth} outside [1, {num_bytes}]")
        self.max_depth = max_depth
        key_set = coerce_keys(keys, width)
        self.is_bytes = key_set.is_bytes
        if self.is_bytes:
            # Byte-native prefix extraction; pruning is byte-granular here
            # (width is always a byte multiple), so pad_bits is zero and
            # the distinguishing depth is the adjacent-LCP byte depth.
            prefixes = self._vector_prefixes_bytes(key_set, max_depth)
        else:
            prefixes = self._vector_prefixes(key_set, width, max_depth, num_bytes)
        self._fst = FastSuccinctTrie.from_sorted_prefix_bytes(prefixes)

    def _vector_prefixes(
        self, key_set: EncodedKeySet, width: int, max_depth: int, num_bytes: int
    ) -> list[bytes]:
        """Compute the sorted pruned-prefix list on the numpy bulk path.

        LCPs, distinguishing lengths and byte depths come from vectorised
        array arithmetic over the stored keys; per depth, the distinct
        prefixes of the unsigned keys (:func:`~repro.workloads.batch.
        decode_ints`) are deduplicated before any bytes object is
        materialised.  Capped-depth
        collisions dedup to equal strings and a natural (uncapped)
        distinguishing prefix is never a prefix of another key's, so the
        merged sorted list is prefix-free up to the covering rule of the bulk
        build (:meth:`FastSuccinctTrie.from_sorted_prefix_bytes`).  Keys
        are big-endian and padded at the top to whole bytes, so a prefix of
        ``bits`` key bits occupies padded-encoding bits ``[pad, pad + bits)``
        and needs ``ceil((pad + bits) / 8)`` bytes — ignoring the pad would
        round distinct keys onto one coarser byte prefix for non-byte
        widths.
        """
        arr = key_set.keys
        self.num_keys = int(arr.size)
        bit_lengths = min_distinguishing_prefix_lengths_array(arr, width)
        pad_bits = 8 * num_bytes - width
        depths = np.maximum(
            1, np.minimum(max_depth, (pad_bits + bit_lengths + 7) // 8)
        )
        unsigned = decode_ints(arr, width)
        prefixes: list[bytes] = []
        for depth in np.unique(depths).tolist():
            shift = 8 * (num_bytes - depth)
            for value in np.unique(unsigned[depths == depth] >> shift).tolist():
                prefixes.append(value.to_bytes(depth, "big"))
        prefixes.sort()
        return prefixes

    def _vector_prefixes_bytes(self, key_set: ByteKeySet, max_depth: int) -> list[bytes]:
        """Sorted pruned-prefix list for a byte-string key set.

        The distinguishing depth is byte-granular (adjacent-LCP byte depth
        plus one, capped at ``max_depth``); per depth the distinct prefix
        rows dedup before any bytes object is materialised, mirroring
        :meth:`_vector_prefixes` with ``pad_bits == 0``.
        """
        self.num_keys = len(key_set)
        if self.num_keys == 0:
            return []
        depths = np.maximum(
            1, np.minimum(max_depth, key_set.distinguishing_byte_depths())
        )
        matrix = key_set.matrix
        prefixes: list[bytes] = []
        for depth in np.unique(depths).tolist():
            rows = unique_rows(np.ascontiguousarray(matrix[depths == depth, :depth]))
            prefixes.extend(row.tobytes() for row in rows)
        prefixes.sort()
        return prefixes

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None) -> "SuRF":
        """Registry protocol: derive the trie depth from the bit budget.

        ``max_depth`` is the knob the paper turns to trade SuRF's memory for
        FPR; here it is chosen as the *deepest* depth whose footprint fits
        ``bits_per_key * num_keys``.  Trie size is non-decreasing in the
        depth, so the search builds shallow-to-deep and stops at the first
        depth over budget, keeping the previous fit — the cheap tries are
        built first and the expensive ones only when the budget admits them.
        When even the one-byte trie exceeds the budget it is returned anyway
        — ``size_in_bits()`` stays the authoritative footprint, as with
        Rosetta's per-level floors.  An explicit ``max_depth`` parameter
        overrides the search.
        """
        params = check_spec_params(spec, ("max_depth",))
        key_set, total_bits = resolve_spec_inputs(spec, keys, workload)
        if "max_depth" in params:
            return cls(key_set, key_set.width, int(params["max_depth"]))
        num_bytes = (key_set.width + 7) // 8
        best = None
        for depth in range(1, num_bytes + 1):
            candidate = cls(key_set, key_set.width, depth)
            if best is not None and candidate.size_in_bits() > total_bits:
                break
            best = candidate
            if candidate.size_in_bits() > total_bits:
                break  # even the one-byte trie overshoots: take it and stop
            if candidate.trie_height() < depth:
                break  # every key already distinguished: deeper is identical
        assert best is not None
        return best

    @property
    def trie(self) -> FastSuccinctTrie:
        """The pruned trie; ``trie.size_in_bits()`` is its measured footprint."""
        return self._fst

    def may_intersect_many(self, queries) -> np.ndarray:
        """Range probes: one level-synchronous walk of the trie per batch."""
        batch = self._batch(queries)
        if self.is_bytes:
            return self._fst.may_intersect_matrix(batch.lo_matrix, batch.hi_matrix)
        return self._fst.may_intersect_many(
            decode_ints(batch.los, self.width),
            decode_ints(batch.his, self.width),
            (self.width + 7) // 8,
        )

    def trie_height(self) -> int:
        """Return the pruned trie's height in bytes."""
        return self._fst.height

    def size_in_bits(self) -> int:
        """Return the size model's LOUDS-DS estimate of the pruned trie.

        The paper's accounting, and what the budget search compares; the
        measured footprint is ``self.trie.size_in_bits()``.
        """
        return self._fst.modelled_size_in_bits()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SuRF(keys={self.num_keys}, width={self.width}, "
            f"max_depth={self.max_depth}, height={self.trie_height()})"
        )
