"""Fixed-prefix-length prefix Bloom filter.

The simplest range-filter design the paper considers (Section 2): hash the
``prefix_len``-bit prefix of every key into a Bloom filter.  A range query
probes every ``prefix_len``-prefix that intersects the range (the ``Q_l``
set of the CPFPR model); a point query, the range ``[k, k]``, probes one.  When a range
spans more prefixes than ``max_probes`` the filter gives up and returns
``True`` — returning a conservative positive is always safe, and the CPFPR
model accounts for exactly this clamp.

With ``prefix_len`` fixed a priori this filter is workload-oblivious; the
protean filters in :mod:`repro.core` are this same structure with the prefix
length *chosen* by Algorithm 1.  It is the trie-less point of Proteus'
design space, a :class:`~repro.filters.prefix_pass.PrefixFilter` with
layers ``(0, prefix_len, None, its Bloom)``, so its probe is that design
space's one range pass (:class:`~repro.filters.prefix_pass.PrefixPass`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.amq.bloom import BloomFilter
from repro.filters.base import check_spec_params, resolve_spec_inputs
from repro.filters.prefix_pass import PrefixFilter, PrefixLayers
from repro.keys.lcp import bit_length_many
from repro.workloads.batch import coerce_keys
from repro.workloads.bytekeys import ByteQueryBatch

#: Default clamp on Bloom probes per range query (mirrored by the CPFPR model).
DEFAULT_MAX_PROBES = 64

#: Prefix slots cover ranges of this many keys when no workload pins the
#: widest sample range — the 64-key slot of the paper's fixed-PBF setup.
DEFAULT_SLOT_SPAN_BITS = 6


def derived_prefix_len(width: int, workload=None) -> int:
    """The fixed-PBF prefix length the paper's experimental setup would pick.

    The slot span is matched to the widest range in the workload's query
    sample, so no sample query covers more than two slots; without a
    workload the default 64-key slot is used.
    """
    span_bits = DEFAULT_SLOT_SPAN_BITS
    batch = workload.queries if workload is not None else None
    if isinstance(batch, ByteQueryBatch) and len(batch):
        span_bits = max(hi - lo for lo, hi in batch.pairs()).bit_length()
    elif batch is not None and len(batch):
        # Stored bounds differ by the user's span read as uint64: the
        # full 64-bit range spans 2**64 - 1, which int64 wraps to -1.
        span_bits = int(bit_length_many((batch.his - batch.los).view(np.uint64)).max())
    return max(1, width - span_bits)


class PrefixBloomFilter(PrefixFilter):
    """A Bloom filter over the ``prefix_len``-bit prefixes of the key set."""

    def __init__(
        self,
        keys: Iterable[int],
        width: int,
        prefix_len: int,
        num_bits: int,
        max_probes: int = DEFAULT_MAX_PROBES,
        seed: int = 0,
    ):
        if not 0 < prefix_len <= width:
            raise ValueError(f"prefix length {prefix_len} outside [1, {width}]")
        if max_probes < 1:
            raise ValueError("max_probes must be at least 1")
        self.width = width
        self.prefix_len = prefix_len
        self.max_probes = max_probes
        key_set = coerce_keys(keys, width)
        self.num_keys = len(key_set)
        self.is_bytes = key_set.is_bytes
        prefixes = key_set.prefixes(prefix_len)
        self._bloom = BloomFilter(num_bits, max(1, len(prefixes)), seed=seed)
        if self.is_bytes:
            # Canonical prefix-byte rows, hashed row-parallel; the prefix
            # pass hashes its slot rows to the same bytes.
            self.num_prefixes = int(prefixes.shape[0])
            self._bloom.add_bytes_rows(prefixes)
        else:
            self.num_prefixes = int(prefixes.size)
            self._bloom.add_many(prefixes)

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None) -> "PrefixBloomFilter":
        """Registry protocol: a fixed baseline whose knobs derive from the spec.

        The Bloom filter gets the whole ``bits_per_key`` budget (its hash
        count then follows from the load, the paper's ``ceil(m/n ln 2)``
        rule); ``prefix_len`` defaults to the slot width matching the widest
        sample range (:func:`derived_prefix_len`).
        """
        params = check_spec_params(spec, ("prefix_len", "max_probes", "seed"))
        key_set, total_bits = resolve_spec_inputs(spec, keys, workload)
        prefix_len = params.get("prefix_len")
        if prefix_len is None:
            prefix_len = derived_prefix_len(key_set.width, workload)
        return cls(
            key_set,
            key_set.width,
            int(prefix_len),
            total_bits,
            max_probes=int(params.get("max_probes", DEFAULT_MAX_PROBES)),
            seed=int(params.get("seed", 0)),
        )

    @property
    def prefix_layers(self) -> PrefixLayers:
        """No trie, and the Bloom layer over the ``prefix_len``-bit prefixes."""
        return PrefixLayers(0, self.prefix_len, None, self._bloom, self.max_probes)

    def size_in_bits(self) -> int:
        return self._bloom.size_in_bits()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrefixBloomFilter(prefix_len={self.prefix_len}, "
            f"bits={self._bloom.num_bits}, keys={self.num_keys})"
        )


class PointBloomFilter(PrefixBloomFilter):
    """A plain Bloom filter over whole keys (the paper's "Bloom" baseline).

    Exactly a :class:`PrefixBloomFilter` with ``prefix_len == width``: point
    queries probe the key itself, range queries probe every key in the range
    (clamped at ``max_probes``, beyond which the answer is a conservative
    ``True``) — the structure LSM stores ship by default and the weakest
    range baseline in the paper's comparison.
    """

    def __init__(
        self,
        keys: Iterable[int],
        width: int,
        num_bits: int,
        max_probes: int = DEFAULT_MAX_PROBES,
        seed: int = 0,
    ):
        super().__init__(keys, width, width, num_bits, max_probes=max_probes, seed=seed)

    @classmethod
    def from_spec(cls, spec, keys=None, workload=None) -> "PointBloomFilter":
        """Registry protocol: whole-key Bloom at the ``bits_per_key`` budget."""
        params = check_spec_params(spec, ("max_probes", "seed"))
        key_set, total_bits = resolve_spec_inputs(spec, keys, workload)
        return cls(
            key_set,
            key_set.width,
            total_bits,
            max_probes=int(params.get("max_probes", DEFAULT_MAX_PROBES)),
            seed=int(params.get("seed", 0)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PointBloomFilter(bits={self._bloom.num_bits}, keys={self.num_keys})"
        )
