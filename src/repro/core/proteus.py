"""Proteus: the self-designing trie + Bloom hybrid range filter.

The paper's headline structure.  :meth:`Proteus.from_spec` (what
``build_filter`` dispatches to) takes the workload's query sample,
evaluates the CPFPR model over the full (trie depth ``l1``, Bloom prefix
length ``l2``) design space under a bits-per-key budget (Algorithm 1), and
instantiates the winning hybrid:

* a uniform-depth trie holding every distinct ``l1``-bit key prefix,
  kept as the sorted array of those prefixes and *charged* at the modelled
  succinct size (:func:`repro.trie.size_model.binary_trie_size_estimate`),
  the quantity Algorithm 1 optimised — and
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
two layers over canonical prefix *bytes*: the trie is the sorted ``S``
array of :func:`~repro.keys.bytestr.mask_rows` prefix rows and the Bloom
layer hashes those rows.  One semantic difference: the byte path probes
every covered ``l2``-slot once the trie gate passes, with no per-slot
``l1`` pruning — the CPFPR byte evaluator charges precisely that probe
set, so the model still predicts the filter it designs.

Proteus is a :class:`~repro.filters.prefix_pass.PrefixFilter`: its probe,
``may_intersect_many``, is the one range pass of the design space
(:class:`~repro.filters.prefix_pass.PrefixPass`) over this filter alone,
the pass an LSM level runs over all of its SSTs' filters.  A point query is
the range ``[k, k]`` (:class:`~repro.filters.base.RangeFilter` defines the
point and scalar probes once).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.amq.bloom import BloomFilter
from repro.core.cpfpr import DEFAULT_MAX_PROBES, CPFPRModel
from repro.core.design import FilterDesign, design_proteus
from repro.filters.base import check_spec_params, resolve_spec_inputs
from repro.filters.prefix_pass import PrefixFilter, PrefixLayers
from repro.keys.bytestr import rows_as_strings
from repro.obs.metrics import timed
from repro.workloads.batch import coerce_keys


class Proteus(PrefixFilter):
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
        self._trie: np.ndarray | None = None
        self._bloom: BloomFilter | None = None
        if l1 > 0:
            prefixes = key_set.prefixes(l1)
            self._trie = rows_as_strings(prefixes) if self.is_bytes else prefixes
        if l2 > 0:
            prefixes = key_set.prefixes(l2)
            self._bloom = BloomFilter(
                max(1, design.bloom_bits), max(1, len(prefixes)), seed=seed
            )
            if self.is_bytes:
                self._bloom.add_bytes_rows(prefixes)
            else:
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
    def trie_layer(self) -> np.ndarray | None:
        """The trie layer: its sorted stored ``l1``-prefixes, read-only.

        ``int64`` stored prefixes for integer keys, canonical prefix bytes
        as an ``S`` array for byte keys; ``None`` when ``trie_depth == 0``.
        """
        if self._trie is None:
            return None
        view = self._trie.view()
        view.flags.writeable = False
        return view

    @property
    def bloom_layer(self) -> BloomFilter | None:
        """The Bloom layer (``None`` when ``bloom_prefix_len == 0``)."""
        return self._bloom

    @property
    def prefix_layers(self) -> PrefixLayers:
        """The trie and Bloom layers as the prefix pass reads them."""
        return PrefixLayers(
            self.design.trie_depth,
            self.design.bloom_prefix_len,
            self.trie_layer,
            self._bloom,
            self.max_probes,
        )

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
