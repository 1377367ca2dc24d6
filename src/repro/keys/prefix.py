"""Prefix arithmetic on fixed-width integer key spaces.

A key of width ``w`` bits is an unsigned integer in ``[0, 2**w)``.  Its
*prefix of length l* is the integer formed by its ``l`` most significant
bits, i.e. ``key >> (w - l)``.  A prefix of length ``l`` *covers* the key
range ``[p << (w - l), ((p + 1) << (w - l)) - 1]``.

These definitions are shared by every filter in the repository and by the
CPFPR model, which reasons about the set of ``l``-prefixes intersecting a
query interval (the ``Q_l`` sets of Section 3 of the paper).
"""

from __future__ import annotations


def prefix_of(key: int, length: int, width: int) -> int:
    """Return the ``length``-bit prefix of ``key`` in a ``width``-bit space.

    ``length == 0`` returns the empty prefix (0); ``length == width`` returns
    the key itself.
    """
    if not 0 <= length <= width:
        raise ValueError(f"prefix length {length} outside [0, {width}]")
    return key >> (width - length)


def prefix_range(lo: int, hi: int, length: int, width: int) -> tuple[int, int]:
    """Return the (inclusive) range of ``length``-prefixes covering ``[lo, hi]``.

    This is the interval ``Q_l`` from the paper: every ``length``-bit prefix
    that is the prefix of at least one value in ``[lo, hi]``.
    """
    if lo > hi:
        raise ValueError(f"empty query range [{lo}, {hi}]")
    shift = width - length
    return lo >> shift, hi >> shift


def prefix_range_count(lo: int, hi: int, length: int, width: int) -> int:
    """Return ``|Q_l|``: the number of ``length``-prefixes covering ``[lo, hi]``."""
    plo, phi = prefix_range(lo, hi, length, width)
    return phi - plo + 1


def prefix_to_range(prefix: int, length: int, width: int) -> tuple[int, int]:
    """Return the (inclusive) key range covered by ``prefix`` of ``length`` bits."""
    if not 0 <= length <= width:
        raise ValueError(f"prefix length {length} outside [0, {width}]")
    shift = width - length
    lo = prefix << shift
    hi = lo + (1 << shift) - 1
    return lo, hi


def truncate_to_prefix(key: int, length: int, width: int) -> int:
    """Zero out all but the first ``length`` bits of ``key`` (keeps width bits)."""
    shift = width - length
    return (key >> shift) << shift


def extend_prefix_min(prefix: int, length: int, width: int) -> int:
    """Smallest ``width``-bit key having ``prefix`` as its ``length``-bit prefix."""
    return prefix << (width - length)


def extend_prefix_max(prefix: int, length: int, width: int) -> int:
    """Largest ``width``-bit key having ``prefix`` as its ``length``-bit prefix."""
    shift = width - length
    return (prefix << shift) | ((1 << shift) - 1)
