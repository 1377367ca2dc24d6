"""Approximate membership query (AMQ) structures.

The paper's protean range filters are AMQ-agnostic (Section 4.3); this
package provides the standard Bloom filter used by the reference
implementation.

All AMQs here share the :class:`~repro.amq.interface.AMQ` interface and hash
arbitrary-precision integer items (key prefixes) through the functions in
:mod:`repro.amq.hashing`.
"""

from repro.amq.bitarray import BitArray
from repro.amq.bloom import BloomFilter, bloom_fpr, bloom_hash_count
from repro.amq.hashing import hash_bytes_64, hash_int_64, hash_pair, mix64
from repro.amq.interface import AMQ

__all__ = [
    "AMQ",
    "BitArray",
    "BloomFilter",
    "bloom_fpr",
    "bloom_hash_count",
    "hash_bytes_64",
    "hash_int_64",
    "hash_pair",
    "mix64",
]
