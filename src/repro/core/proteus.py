"""Proteus: the self-designing trie + Bloom hybrid range filter.

The paper's headline structure.  :meth:`Proteus.from_spec` (what
``build_filter`` dispatches to) takes the workload's query sample,
evaluates the CPFPR model over the full (trie depth ``l1``, Bloom prefix
length ``l2``) design space under a bits-per-key budget (Algorithm 1), and
instantiates the winning hybrid:

* a uniform-depth trie holding every distinct ``l1``-bit key prefix,
  queried as a :class:`~repro.trie.sorted_index.SortedPrefixIndex` and
  *charged* at the modelled succinct size
  (:func:`repro.trie.size_model.binary_trie_size_estimate`), the quantity
  Algorithm 1 optimised — and
* a Bloom filter over the distinct ``l2``-bit key prefixes, holding the rest
  of the budget.

A range query first consults the trie; only the ``l2``-prefixes of the query
interval that extend a *stored* ``l1``-prefix are probed in the Bloom filter
(prefixes under an absent ``l1``-prefix cannot contain a key, so skipping
them is exact).  Queries spanning more than ``max_probes`` ``l2``-prefixes
return a conservative ``True``.  Every positive produced this way either
reflects a real key prefix or a Bloom/trie over-approximation — never a
dropped key — so the filter has **zero false negatives** by construction.

Byte-string key sets (:class:`~repro.workloads.ByteKeySet`) build the same
two layers over canonical prefix *bytes*: the trie becomes a
:class:`~repro.trie.sorted_index.SortedBytePrefixIndex` and the Bloom layer
hashes :func:`~repro.keys.bytestr.mask_rows` prefix rows.  One semantic
difference: the byte path probes every covered ``l2``-slot once the trie
gate passes, with no per-slot ``l1`` pruning — the CPFPR byte evaluator
charges precisely that probe set, so the model still predicts the filter
it designs.

A point query is the range ``[k, k]`` (:class:`~repro.filters.base.
RangeFilter` defines the point and scalar probes once), so
:meth:`Proteus.may_intersect_many` is the filter's one probe.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.amq.bloom import BloomFilter
from repro.core.cpfpr import DEFAULT_MAX_PROBES, CPFPRModel
from repro.core.design import FilterDesign, design_proteus
from repro.filters.base import (
    RangeFilter,
    check_spec_params,
    ragged_ranges,
    resolve_spec_inputs,
)
from repro.keys.bytestr import byte_slot_bounds, expand_slot_rows
from repro.obs.metrics import timed
from repro.trie.sorted_index import SortedBytePrefixIndex, SortedPrefixIndex
from repro.workloads.batch import coerce_keys, slot_bounds
from repro.workloads.bytekeys import ByteQueryBatch


class Proteus(RangeFilter):
    """The self-designing range filter (trie layer + Bloom layer)."""

    def __init__(
        self,
        keys: Iterable[int],
        width: int,
        design: FilterDesign,
        max_probes: int = DEFAULT_MAX_PROBES,
        seed: int = 0,
    ):
        if design.bloom_prefix_len and design.trie_depth >= design.bloom_prefix_len:
            raise ValueError(
                f"trie depth {design.trie_depth} must be shorter than the Bloom "
                f"prefix length {design.bloom_prefix_len}"
            )
        if max_probes < 1:
            raise ValueError("max_probes must be at least 1")
        self.width = width
        self.design = design
        self.max_probes = max_probes
        key_set = coerce_keys(keys, width)
        self.num_keys = len(key_set)
        self.is_bytes = key_set.is_bytes
        l1, l2 = design.trie_depth, design.bloom_prefix_len
        self._trie: SortedPrefixIndex | SortedBytePrefixIndex | None = None
        self._bloom: BloomFilter | None = None
        if self.is_bytes:
            if l1 > 0:
                self._trie = SortedBytePrefixIndex(key_set.prefixes(l1), l1, width)
            if l2 > 0:
                rows = key_set.prefixes(l2)
                self._bloom = BloomFilter(
                    max(1, design.bloom_bits), max(1, int(rows.shape[0])), seed=seed
                )
                self._bloom.add_bytes_rows(rows)
            return
        if l1 > 0:
            self._trie = SortedPrefixIndex(key_set.prefixes(l1), l1, width)
        if l2 > 0:
            prefixes = key_set.prefixes(l2)
            self._bloom = BloomFilter(
                max(1, design.bloom_bits), max(1, int(prefixes.size)), seed=seed
            )
            self._bloom.add_many(prefixes)

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None, metrics=None) -> "Proteus":
        """Registry protocol: CPFPR model → Algorithm 1 → instantiate the winner.

        A self-designing family: the workload's query sample *is* the input
        Algorithm 1 optimises against, so ``workload`` is required.  ``keys``
        defaults to the workload's key set; passing a subset (an LSM
        per-SST slice, say) designs against the shared sample but builds
        over just those keys.  ``metrics`` optionally records the build's
        phases (model derivation, design search, instantiation) and the
        final size/budget figures.
        """
        if workload is None:
            raise ValueError(
                "the self-designing 'proteus' family needs a workload (query sample)"
            )
        params = check_spec_params(spec, ("max_probes", "seed"))
        max_probes = int(params.get("max_probes", DEFAULT_MAX_PROBES))
        key_set, total_bits = resolve_spec_inputs(spec, keys, workload)
        with timed(metrics, "build.model_seconds"):
            model = CPFPRModel(
                key_set, key_set.width, workload.queries, max_probes, metrics=metrics
            )
        with timed(metrics, "build.design_seconds"):
            design = design_proteus(model, total_bits, metrics)
        with timed(metrics, "build.instantiate_seconds"):
            return cls(
                key_set, key_set.width, design,
                max_probes=max_probes, seed=int(params.get("seed", 0)),
            )

    @property
    def expected_fpr(self) -> float:
        """The CPFPR model's prediction for the instantiated design."""
        return self.design.expected_fpr

    @property
    def trie_layer(self) -> SortedPrefixIndex | SortedBytePrefixIndex | None:
        """The trie layer's prefix index (``None`` when ``trie_depth == 0``)."""
        return self._trie

    @property
    def bloom_layer(self) -> BloomFilter | None:
        """The Bloom layer (``None`` when ``bloom_prefix_len == 0``)."""
        return self._bloom

    def _may_intersect_bytes(self, batch: ByteQueryBatch) -> np.ndarray:
        """Byte-mode batch ranges: trie gate, then slot-window Bloom probes.

        The gate is interval-level only; every covered ``l2``-slot of a gated
        unclamped query is probed (no per-slot ``l1`` pruning), the CPFPR
        byte evaluator's probe accounting.
        """
        n = len(batch)
        if self.num_keys == 0:
            return np.zeros(n, dtype=bool)
        lo_m, hi_m = batch.lo_matrix, batch.hi_matrix
        gate = (
            self._trie.overlaps_matrix(lo_m, hi_m)
            if self._trie is not None
            else np.ones(n, dtype=bool)
        )
        if self._bloom is None:
            return gate
        l2 = self.design.bloom_prefix_len
        plo_rows, base, span, clamped = byte_slot_bounds(
            lo_m, hi_m, l2, self.max_probes
        )
        out = gate & clamped  # clamped gated queries: conservative positive
        rows = np.flatnonzero(gate & ~clamped)
        if rows.size:
            slot_rows, offsets = expand_slot_rows(plo_rows, base, span, l2, rows)
            hits = self._bloom.contains_bytes_rows(slot_rows)
            out[rows] = np.logical_or.reduceat(hits, offsets[:-1])
        return out

    def may_intersect_many(self, queries) -> np.ndarray:
        """Trie gate, then the Bloom probes of each query's covered ``l2``-slots."""
        batch = self._batch(queries)
        if self.is_bytes:
            return self._may_intersect_bytes(batch)
        if self.num_keys == 0:
            return np.zeros(len(batch), dtype=bool)
        trie, bloom = self._trie, self._bloom
        gate = (
            trie.overlaps_many(batch.los, batch.his)
            if trie is not None
            else np.ones(len(batch), dtype=bool)
        )
        if bloom is None:
            return gate
        l1, l2 = self.design.trie_depth, self.design.bloom_prefix_len
        plo, phi, clamped = slot_bounds(
            batch.los, batch.his, self.width, l2, self.max_probes
        )
        out = gate & clamped  # clamped gated queries: conservative positive
        todo = gate & ~clamped
        if todo.any():
            flat, seg_starts = ragged_ranges(plo[todo], phi[todo] - plo[todo] + 1)
            hits = bloom.contains_many(flat)
            if trie is not None:
                # Only l2-slots extending a stored l1-prefix count; a Bloom
                # positive on an uncovered slot is discarded (no key lies
                # below it, so skipping it is exact).
                hits &= trie.contains_many(flat >> np.int64(l2 - l1))
            out[todo] = np.logical_or.reduceat(hits, seg_starts)
        return out

    def size_in_bits(self) -> int:
        """Modelled trie footprint + actual Bloom bits (paper accounting)."""
        total = self.design.trie_bits if self._trie is not None else 0
        if self._bloom is not None:
            total += self._bloom.size_in_bits()
        return total

    def size_breakdown(self) -> dict[str, int]:
        """Per-layer charged footprint: modelled trie bits + actual Bloom bits."""
        breakdown = {}
        if self._trie is not None:
            breakdown["trie"] = self.design.trie_bits
        if self._bloom is not None:
            breakdown["bloom"] = self._bloom.size_in_bits()
        return breakdown or {"total": 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Proteus(l1={self.design.trie_depth}, l2={self.design.bloom_prefix_len}, "
            f"keys={self.num_keys}, bits={self.size_in_bits()}, "
            f"expected_fpr={self.design.expected_fpr:.4g})"
        )
