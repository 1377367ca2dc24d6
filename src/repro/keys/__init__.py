"""Key encoding utilities.

All range filters in this repository operate on keys viewed as unsigned
integers of a fixed bit width (the *key space width*).  64-bit integer keys
use a width of 64; variable-length string keys are padded with trailing null
bytes to the maximum key length and use a width of ``8 * max_len`` bits, which
is exactly the treatment described in Section 7 of the paper.

The :class:`~repro.keys.keyspace.KeySpace` classes encapsulate that mapping;
:mod:`repro.keys.prefix` provides prefix arithmetic and
:mod:`repro.keys.lcp` the longest-common-prefix computations that drive the
CPFPR model.
"""

from repro.keys.keyspace import IntegerKeySpace, KeySpace, StringKeySpace
from repro.keys.lcp import (
    bit_length_many,
    lcp_bits_many,
    min_distinguishing_prefix_lengths_array,
    query_set_lcp_many,
    unique_prefix_counts_array,
)
from repro.keys.prefix import (
    extend_prefix_max,
    extend_prefix_min,
    prefix_of,
    prefix_range,
    prefix_range_count,
    prefix_to_range,
    truncate_to_prefix,
)

__all__ = [
    "KeySpace",
    "IntegerKeySpace",
    "StringKeySpace",
    "lcp_bits_many",
    "bit_length_many",
    "min_distinguishing_prefix_lengths_array",
    "query_set_lcp_many",
    "unique_prefix_counts_array",
    "prefix_of",
    "prefix_range",
    "prefix_range_count",
    "prefix_to_range",
    "truncate_to_prefix",
    "extend_prefix_min",
    "extend_prefix_max",
]
