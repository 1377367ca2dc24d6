"""Key machinery shared by the filters and the CPFPR model.

Keys live in a ``width``-bit space in one of two representations, chosen
by :func:`repro.workloads.batch.coerce_keys`: integers of at most 64 bits
(the int64 stored form), or byte strings (byte/str keys, and wider
integers as their big-endian bytes), whose ``memcmp`` order is the order
of their null-padded big-endian integers (Section 7 of the paper).
:mod:`repro.keys.lcp` provides the longest-common-prefix computations over
integer keys that drive the CPFPR model, and :mod:`repro.keys.bytestr` the
byte-matrix primitives of byte keys.  A key's ``l``-bit prefix is ``key >>
(width - l)``, formed in place by the array code that needs it.
"""

from repro.keys.lcp import (
    bit_length_many,
    lcp_bits_many,
    min_distinguishing_prefix_lengths_array,
    query_set_lcp_many,
    unique_prefix_counts_array,
)

__all__ = [
    "lcp_bits_many",
    "bit_length_many",
    "min_distinguishing_prefix_lengths_array",
    "query_set_lcp_many",
    "unique_prefix_counts_array",
]
