"""Range filters: the common interface and the paper's fixed baselines.

* :class:`~repro.filters.base.RangeFilter` — the interface every filter in
  this repository implements: one batched range probe,
  ``may_intersect_many``, with zero false negatives (the point and scalar
  probes are defined on it once), plus size accounting.
* :class:`~repro.filters.base.TrieOracle` — the exact ground truth used by
  the randomized test-suite.
* :class:`~repro.filters.prefix_pass.PrefixPass` — the one range probe of
  Proteus' design space (a trie of ``l1``-bit prefixes over a Bloom
  filter of ``l2``-bit prefixes), for any number of filters each clipped
  to its fences: every :class:`~repro.filters.prefix_pass.PrefixFilter`
  (the prefix Bloom filters here, 1PBF and Proteus) answers through it
  alone, and an LSM level through it for all of its SSTs.
* :class:`~repro.filters.prefix_bloom.PrefixBloomFilter` — fixed-prefix
  Bloom range filter.
* :class:`~repro.filters.prefix_bloom.PointBloomFilter` — plain whole-key
  Bloom filter (the paper's "Bloom" baseline).
* :class:`~repro.filters.surf.SuRF` — SuRF-Base, the trie-only baseline.
* :class:`~repro.filters.rosetta.Rosetta` — per-level Bloom filters with
  dyadic range decomposition.

The self-designing filters (1PBF, 2PBF, Proteus) live in :mod:`repro.core`:
they are these same trie/Bloom ingredients with the design point chosen by
the CPFPR model and Algorithm 1.  Every family also implements the registry
build protocol ``from_spec(spec, keys, workload)`` — see :mod:`repro.api`.
"""

from repro.filters.base import RangeFilter, TrieOracle
from repro.filters.prefix_bloom import PointBloomFilter, PrefixBloomFilter
from repro.filters.rosetta import Rosetta, dyadic_intervals
from repro.filters.surf import SuRF

__all__ = [
    "RangeFilter",
    "TrieOracle",
    "PrefixBloomFilter",
    "PointBloomFilter",
    "SuRF",
    "Rosetta",
    "dyadic_intervals",
]
