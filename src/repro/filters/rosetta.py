"""Rosetta: per-level Bloom filters with dyadic range decomposition.

Rosetta (Luo et al., SIGMOD 2020) is the Bloom-only baseline Proteus is
measured against.  It keeps one Bloom filter per prefix length ("level"):
level ``l`` stores every distinct ``l``-bit prefix of the key set.  A range
query is decomposed into maximal dyadic intervals — each exactly the span of
one prefix — and each dyadic prefix is resolved by *doubting*: probe it at
its own level, and on a positive recursively probe both children until the
bottom level confirms.  A ``False`` is only ever produced by a Bloom
negative, so the structure inherits the Bloom filters' no-false-negative
guarantee.

Two practical deviations from the ideal structure, both conservative:

* only the bottom ``num_levels`` levels carry Bloom filters (the top of a
  64-level hierarchy is nearly free of information); dyadic prefixes above
  the first filtered level recurse unprobed, and
* the total number of Bloom probes per query is clamped at ``max_probes``;
  on exhaustion the query returns ``True``.

The per-level bit budget is split proportionally to the number of distinct
prefixes stored at each level, which approximates the paper's optimised
allocation (deeper levels hold more distinct prefixes and receive more
memory).

Construction is vectorised: each level's distinct prefixes come from the
key set's prefix cache (one ``np.unique`` per level, or canonical prefix
rows for byte keys) and are inserted through the bulk hash paths —
bit-identical to a per-key build, which the parity suite pins.

Probes run in the key set's stored form (:mod:`repro.workloads.batch`).
The dyadic decomposition needs no change for it: below 64 bits the stored
form is the key, and at width 64 every stored position other than the two
ends of the space has the alignment of its key; the only difference is
that the full-space query splits into its two level-1 halves instead of
one unfiltered level-0 block, which probes the same prefixes in the same
order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.amq.bloom import BloomFilter
from repro.filters.base import RangeFilter, check_spec_params, resolve_spec_inputs
from repro.keys.bytestr import prefix_item_bytes
from repro.workloads.batch import coerce_keys

#: Probe budget per range query; exceeding it returns a conservative positive.
DEFAULT_MAX_PROBES = 256

#: Budget rule for the derived level count: one filtered level per this many
#: bits of the per-key budget (each bottom level stores ~one prefix per key,
#: and a Bloom layer below ~2 bits per item carries no information).
LEVEL_BUDGET_BITS_PER_KEY = 2.0


def dyadic_intervals(lo: int, hi: int, width: int) -> Iterator[tuple[int, int]]:
    """Decompose ``[lo, hi]`` into maximal dyadic intervals.

    Yields ``(prefix, level)`` pairs: each interval is exactly the key span
    of ``prefix`` at ``level`` bits.  At most ``2 * width`` pairs are
    produced for any range.  Bounds may be stored width-64 keys: the
    lowest set bit of a negative position is its alignment too.
    """
    if lo > hi:
        raise ValueError(f"empty query range [{lo}, {hi}]")
    position = lo
    while position <= hi:
        # Largest power-of-two block aligned at `position`...
        size = position & -position if position else 1 << width
        # ...shrunk until it fits inside the remaining range.
        while position + size - 1 > hi:
            size >>= 1
        level = width - size.bit_length() + 1
        yield position >> (width - level), level
        position += size


class Rosetta(RangeFilter):
    """A hierarchy of per-level prefix Bloom filters."""

    def __init__(
        self,
        keys: Iterable[int],
        width: int,
        total_bits: int,
        num_levels: int | None = None,
        max_probes: int = DEFAULT_MAX_PROBES,
        seed: int = 0,
    ):
        if width <= 0:
            raise ValueError("key width must be positive")
        if total_bits <= 0:
            raise ValueError("a Rosetta filter needs a positive bit budget")
        if num_levels is None:
            num_levels = width
        if not 1 <= num_levels <= width:
            raise ValueError(f"level count {num_levels} outside [1, {width}]")
        if max_probes < 1:
            raise ValueError("max_probes must be at least 1")
        self.width = width
        self.max_probes = max_probes
        self.first_level = width - num_levels + 1
        key_set = coerce_keys(keys, width)
        self.num_keys = len(key_set)
        self.is_bytes = key_set.is_bytes
        counts = key_set.prefix_counts()
        levels = range(self.first_level, width + 1)
        weight_total = sum(counts[level] for level in levels) or 1
        self._blooms: dict[int, BloomFilter] = {}
        for level in levels:
            # Each level needs at least one bit; with a budget smaller than
            # the level count the build can therefore overshoot total_bits —
            # size_in_bits() is the authoritative footprint, not the request.
            level_bits = max(1, total_bits * counts[level] // weight_total)
            bloom = BloomFilter(level_bits, max(1, counts[level]), seed=seed + level)
            # The sorted distinct prefixes come from the key set's cache and
            # every hash lane runs column-parallel; Bloom contents do not
            # depend on insertion order, so this equals a per-key build.
            if self.is_bytes:
                bloom.add_bytes_rows(key_set.prefixes(level))
            else:
                bloom.add_many(key_set.prefixes(level))
            self._blooms[level] = bloom

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None) -> "Rosetta":
        """Registry protocol: derive the level count from the bit budget.

        The filtered-level count follows the budget rule the paper's setup
        uses — roughly one bottom level per :data:`LEVEL_BUDGET_BITS_PER_KEY`
        bits of the per-key budget, since each bottom level stores about one
        distinct prefix per key — clamped to ``[1, width]``.  An explicit
        ``num_levels`` parameter overrides the rule.
        """
        params = check_spec_params(spec, ("num_levels", "max_probes", "seed"))
        key_set, total_bits = resolve_spec_inputs(spec, keys, workload)
        num_levels = params.get("num_levels")
        if num_levels is None:
            num_levels = max(
                1,
                min(key_set.width, int(spec.bits_per_key / LEVEL_BUDGET_BITS_PER_KEY)),
            )
        return cls(
            key_set,
            key_set.width,
            total_bits,
            num_levels=int(num_levels),
            max_probes=int(params.get("max_probes", DEFAULT_MAX_PROBES)),
            seed=int(params.get("seed", 0)),
        )

    def _probe_level(self, prefix: int, level: int) -> bool:
        """Probe one dyadic prefix through the representation-correct item."""
        bloom = self._blooms[level]
        if self.is_bytes:
            return bloom.contains_bytes(prefix_item_bytes(prefix, level))
        return bloom.contains(prefix)

    def may_intersect_many(self, queries) -> np.ndarray:
        """Doubt each query's dyadic decomposition, one query at a time.

        Bounds are the stored form for integer keys and padded big-endian
        integers for byte keys.
        """
        batch = self._batch(queries)
        if self.num_keys == 0:
            return np.zeros(len(batch), dtype=bool)
        if self.is_bytes:
            bounds = batch.pairs()
        else:
            bounds = zip(batch.los.tolist(), batch.his.tolist())
        return np.fromiter(
            (self._intersects(lo, hi) for lo, hi in bounds), dtype=bool, count=len(batch)
        )

    def _intersects(self, lo: int, hi: int) -> bool:
        """One query: doubt its dyadic intervals under one probe budget."""
        budget = self.max_probes
        for prefix, level in dyadic_intervals(lo, hi, self.width):
            # _doubt answers True (conservative) when invoked with an
            # exhausted budget, so a definitive False with exactly zero
            # budget left is still a trustworthy negative.
            positive, budget = self._doubt(prefix, level, budget)
            if positive:
                return True
        return False

    def _doubt(self, prefix: int, level: int, budget: int) -> tuple[bool, int]:
        """Resolve a dyadic prefix: (may contain a key, remaining budget)."""
        if budget <= 0:
            return True, 0
        if level >= self.first_level:
            budget -= 1
            if not self._probe_level(prefix, level):
                return False, budget
        if level == self.width:
            return True, budget
        positive, budget = self._doubt(prefix << 1, level + 1, budget)
        if positive:
            return True, budget
        return self._doubt((prefix << 1) | 1, level + 1, budget)

    def size_in_bits(self) -> int:
        return sum(bloom.size_in_bits() for bloom in self._blooms.values())

    def size_breakdown(self) -> dict[str, int]:
        """Per-level charged footprint, one entry per filtered prefix length."""
        return {
            f"level_{level}": bloom.size_in_bits()
            for level, bloom in sorted(self._blooms.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Rosetta(keys={self.num_keys}, width={self.width}, "
            f"levels={len(self._blooms)}, bits={self.size_in_bits()})"
        )
