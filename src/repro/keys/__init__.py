"""Key encoding utilities.

All range filters in this repository operate on keys viewed as unsigned
integers of a fixed bit width (the *key space width*).  64-bit integer keys
use a width of 64; variable-length string keys are padded with trailing null
bytes to the maximum key length and use a width of ``8 * max_len`` bits, which
is exactly the treatment described in Section 7 of the paper.

The :class:`~repro.keys.keyspace.KeySpace` classes encapsulate that mapping;
:mod:`repro.keys.lcp` provides the longest-common-prefix computations that
drive the CPFPR model and :mod:`repro.keys.bytestr` the byte-matrix
primitives of byte keys.  A key's ``l``-bit prefix is ``key >> (width -
l)``, formed in place by the array code that needs it.
"""

from repro.keys.keyspace import IntegerKeySpace, KeySpace, StringKeySpace
from repro.keys.lcp import (
    bit_length_many,
    lcp_bits_many,
    min_distinguishing_prefix_lengths_array,
    query_set_lcp_many,
    unique_prefix_counts_array,
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
]
