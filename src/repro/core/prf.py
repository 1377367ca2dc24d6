"""Protean range filters: 1PBF and 2PBF (Section 4 of the paper).

A *protean* filter is an ordinary prefix-Bloom structure whose prefix
lengths are not fixed a priori but chosen by Algorithm 1 from a sample of
the query workload.  1PBF is a single prefix Bloom layer; 2PBF stacks two
layers with independent seeds — a coarse one that rejects wide misses
cheaply and a fine one that discriminates near-miss queries — and answers
positively only when *both* layers do.  Proteus (in
:mod:`repro.core.proteus`) replaces the coarse Bloom layer with a trie,
completing the design space.

Both classes can be constructed directly from an explicit design point, or
self-designed through the registry (``build_filter`` or ``from_spec`` on a
:class:`~repro.api.Workload`), which runs the CPFPR model + Algorithm 1
first.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.cpfpr import DEFAULT_MAX_PROBES, CPFPRModel
from repro.core.design import FilterDesign, design_one_pbf, design_two_pbf
from repro.filters.base import RangeFilter, check_spec_params, resolve_spec_inputs
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.obs.metrics import timed
from repro.workloads.batch import coerce_keys


class OnePBF(PrefixBloomFilter):
    """A one-layer protean Bloom filter: a PrefixBloomFilter that chose its
    own prefix length."""

    #: The design point Algorithm 1 selected (None when constructed directly).
    design: FilterDesign | None = None

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None, metrics=None) -> "OnePBF":
        """Registry protocol: self-design the prefix length over the workload."""
        if workload is None:
            raise ValueError(
                "the self-designing '1pbf' family needs a workload (query sample)"
            )
        params = check_spec_params(spec, ("max_probes", "seed"))
        max_probes = int(params.get("max_probes", DEFAULT_MAX_PROBES))
        key_set, total_bits = resolve_spec_inputs(spec, keys, workload)
        with timed(metrics, "build.model_seconds"):
            model = CPFPRModel(
                key_set, key_set.width, workload.queries, max_probes, metrics=metrics
            )
        with timed(metrics, "build.design_seconds"):
            design = design_one_pbf(model, total_bits, metrics)
        instance = cls(
            key_set,
            key_set.width,
            design.bloom_prefix_len,
            design.bloom_bits,
            max_probes=max_probes,
            seed=int(params.get("seed", 0)),
        )
        instance.design = design
        return instance

    @property
    def expected_fpr(self) -> float:
        """CPFPR prediction for the chosen design (self-designed builds only)."""
        if self.design is None:
            raise AttributeError("expected_fpr is only available on built filters")
        return self.design.expected_fpr


class TwoPBF(RangeFilter):
    """A two-layer protean Bloom filter with independent per-layer seeds."""

    design: FilterDesign | None = None

    def __init__(
        self,
        keys: Iterable[int],
        width: int,
        first_prefix_len: int,
        second_prefix_len: int,
        first_bits: int,
        second_bits: int,
        max_probes: int = DEFAULT_MAX_PROBES,
        seed: int = 0,
    ):
        if not 0 < first_prefix_len < second_prefix_len <= width:
            raise ValueError(
                f"need 0 < l1 < l2 <= width, got "
                f"({first_prefix_len}, {second_prefix_len})"
            )
        self.width = width
        key_set = coerce_keys(keys, width)
        self.num_keys = len(key_set)
        self.is_bytes = key_set.is_bytes
        # Both layers share one key set (and its prefix cache); each hashes
        # the representation-correct items — prefix ints or canonical
        # prefix bytes — through its own independent seed.
        self._first = PrefixBloomFilter(
            key_set, width, first_prefix_len, first_bits,
            max_probes=max_probes, seed=seed,
        )
        self._second = PrefixBloomFilter(
            key_set, width, second_prefix_len, second_bits,
            max_probes=max_probes, seed=seed ^ 0x5DEECE66D,
        )

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None, metrics=None) -> "TwoPBF":
        """Registry protocol: self-design both layers over the workload."""
        if workload is None:
            raise ValueError(
                "the self-designing '2pbf' family needs a workload (query sample)"
            )
        params = check_spec_params(spec, ("max_probes", "seed"))
        max_probes = int(params.get("max_probes", DEFAULT_MAX_PROBES))
        key_set, total_bits = resolve_spec_inputs(spec, keys, workload)
        if key_set.width < 2:
            raise ValueError("a 2PBF needs a key space of at least 2 bits")
        with timed(metrics, "build.model_seconds"):
            model = CPFPRModel(
                key_set, key_set.width, workload.queries, max_probes, metrics=metrics
            )
        with timed(metrics, "build.design_seconds"):
            design = design_two_pbf(model, total_bits, metrics)
        if design.kind == "1pbf":
            # Budget admitted only one layer: widen it into a degenerate 2PBF
            # by splitting off a minimal coarse layer just above the root.
            # Each layer needs at least one bit, and the CPFPR prediction is
            # re-evaluated at the synthesized design point — the 1PBF figure
            # describes a different structure.
            second_len = min(key_set.width, max(design.bloom_prefix_len, 2))
            first_len = second_len // 2
            first_bits = max(1, design.bloom_bits // 2)
            second_bits = max(1, design.bloom_bits - design.bloom_bits // 2)
            design = FilterDesign(
                "2pbf",
                first_len,
                second_len,
                first_bits,
                second_bits,
                model.two_pbf_fpr(first_len, second_len, first_bits, second_bits),
            )
        instance = cls(
            key_set,
            key_set.width,
            design.trie_depth,
            design.bloom_prefix_len,
            design.trie_bits,
            design.bloom_bits,
            max_probes=max_probes,
            seed=int(params.get("seed", 0)),
        )
        instance.design = design
        return instance

    @property
    def expected_fpr(self) -> float:
        """CPFPR prediction for the chosen design (self-designed builds only)."""
        if self.design is None:
            raise AttributeError("expected_fpr is only available on built filters")
        return self.design.expected_fpr

    def may_intersect_many(self, queries) -> np.ndarray:
        """Positive only where both layers are: the batch is coerced once, here."""
        batch = self._batch(queries)
        return self._first.may_intersect_many(batch) & self._second.may_intersect_many(
            batch
        )

    def size_in_bits(self) -> int:
        return self._first.size_in_bits() + self._second.size_in_bits()

    def size_breakdown(self) -> dict[str, int]:
        """Per-layer charged footprint: the coarse and fine Bloom layers."""
        return {
            "first": self._first.size_in_bits(),
            "second": self._second.size_in_bits(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TwoPBF(l1={self._first.prefix_len}, l2={self._second.prefix_len}, "
            f"keys={self.num_keys})"
        )
