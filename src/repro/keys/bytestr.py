"""Vectorised primitives over padded byte-matrix key representations.

The byte-key execution path (:class:`repro.workloads.ByteKeySet`) views a
sorted variable-length key set as a dense ``(n, L)`` ``uint8`` matrix of
keys null-padded to the maximum length ``L``.  Padding with trailing nulls
preserves lexicographic order (``memcmp`` semantics), so the matrix rows —
and equivalently numpy's fixed-width ``S{L}`` byte strings over the same
memory — sort and search identically to the keys' big-endian ``8*L``-bit
integer view.  Everything here exploits that equivalence:

* prefix extraction is column truncation plus one masked byte;
* LCPs come from the first differing byte of a row XOR;
* Bloom items hash through a row-parallel restatement of
  :func:`repro.amq.hashing.hash_bytes_64`, bit-exact with the scalar hash
  of the same canonical prefix bytes;
* range filters enumerate prefix *slots* through a low-64-bit window over
  the trailing eight prefix bytes, with a conservative clamp when a slot
  interval crosses a window boundary.
"""

from __future__ import annotations

import numpy as np

from repro.amq import hashing
from repro.amq.hashing import mix64, mix64_many

__all__ = [
    "adjacent_lcp_bits",
    "byte_slot_bounds",
    "expand_slot_rows",
    "hash_rows",
    "hash_rows_pair",
    "lcp_bits_rows",
    "mask_rows",
    "prefix_item_bytes",
    "rows_as_strings",
    "strings_as_rows",
    "unique_rows",
    "window_values",
]

#: ``int.bit_length`` for every byte value, for intra-byte LCP refinement.
_BITLEN8 = np.array([v.bit_length() for v in range(256)], dtype=np.int64)


def rows_as_strings(mat: np.ndarray) -> np.ndarray:
    """View an ``(n, nb)`` uint8 matrix as an ``S{nb}`` byte-string array.

    Fixed-width byte strings compare by ``memcmp``, so sorting or
    searchsorting the view is exactly sorting the rows in padded key order.
    """
    n, nb = mat.shape
    if nb == 0:
        raise ValueError("cannot view zero-width rows as byte strings")
    return np.ascontiguousarray(mat).view(f"S{nb}").reshape(n)


def strings_as_rows(arr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rows_as_strings`: ``S{nb}`` array to uint8 matrix."""
    nb = arr.dtype.itemsize
    return np.ascontiguousarray(arr).view(np.uint8).reshape(arr.size, nb)


def mask_rows(mat: np.ndarray, bits: int) -> np.ndarray:
    """Return the ``bits``-bit prefixes of each row as ``ceil(bits/8)`` bytes.

    Columns past the prefix are dropped and the final byte is masked to its
    leading ``bits % 8`` bits — the canonical byte form of a prefix, used
    for hashing, deduplication and slot enumeration alike.
    """
    nb = (bits + 7) // 8
    out = mat[:, :nb].copy()
    rem = bits & 7
    if rem:
        out[:, nb - 1] &= np.uint8((0xFF << (8 - rem)) & 0xFF)
    return out


def unique_rows(mat: np.ndarray) -> np.ndarray:
    """Sorted distinct rows of a uint8 matrix (padded lexicographic order)."""
    if mat.shape[0] == 0:
        return mat
    return strings_as_rows(np.unique(rows_as_strings(mat)))


def lcp_bits_rows(a: np.ndarray, b: np.ndarray, pad_to: int | None = None) -> np.ndarray:
    """Bitwise LCP of corresponding rows of two equal-shape uint8 matrices.

    Identical rows get the full padded width ``8 * columns`` (or ``pad_to``
    bits when the matrices are truncations of wider keys).
    """
    n, nb = a.shape
    full = 8 * nb if pad_to is None else pad_to
    x = np.bitwise_xor(a, b)
    nz = x != 0
    has = nz.any(axis=1)
    first = nz.argmax(axis=1)
    xb = x[np.arange(n), first]
    out = 8 * first + 8 - _BITLEN8[xb]
    out[~has] = full
    return out.astype(np.int64)


def adjacent_lcp_bits(mat: np.ndarray) -> np.ndarray:
    """Bitwise LCPs of each adjacent row pair of a sorted key matrix."""
    if mat.shape[0] <= 1:
        return np.zeros(0, dtype=np.int64)
    return lcp_bits_rows(mat[:-1], mat[1:])


def hash_rows(mat: np.ndarray, seed: int = 0) -> np.ndarray:
    """Row-parallel :func:`repro.amq.hashing.hash_bytes_64`.

    Bit-exact with ``hash_bytes_64(bytes(row), seed)`` for every row: the
    FNV-1a accumulation consumes little-endian 8-byte chunks, so the
    zero-padding of a trailing partial chunk is a no-op, and the length mix
    uses the true row width.
    """
    n, nb = mat.shape
    acc = np.full(n, np.uint64(hashing._FNV_OFFSET ^ mix64(seed)), dtype=np.uint64)
    num_chunks = (nb + 7) // 8
    if num_chunks:
        if num_chunks * 8 != nb:
            buf = np.zeros((n, num_chunks * 8), dtype=np.uint8)
            buf[:, :nb] = mat
        else:
            buf = np.ascontiguousarray(mat)
        chunks = buf.view("<u8")
        prime = np.uint64(hashing._FNV_PRIME)
        for j in range(num_chunks):
            acc = (acc ^ chunks[:, j]) * prime
    return mix64_many(acc ^ np.uint64(nb))


def hash_rows_pair(mat: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row-parallel :func:`repro.amq.hashing.hash_bytes_pair`: ``(h1, h2)``."""
    h1 = hash_rows(mat, seed)
    h2 = hash_rows(mat, seed ^ hashing._GOLDEN) | np.uint64(1)
    return h1, h2


def window_values(mat: np.ndarray) -> np.ndarray:
    """Big-endian uint64 of the trailing ``min(nb, 8)`` bytes of each row."""
    n, nb = mat.shape
    w = min(nb, 8)
    buf = np.zeros((n, 8), dtype=np.uint8)
    buf[:, 8 - w :] = mat[:, nb - w :]
    return buf.view(">u8").reshape(n).astype(np.uint64)


def byte_slot_bounds(
    lo_mat: np.ndarray,
    hi_mat: np.ndarray,
    prefix_bits: int,
    max_probes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Byte-mode twin of ``repro.workloads.slot_bounds``.

    Returns ``(plo_rows, base, span, clamped)``: the masked lo-prefix rows,
    their low-64-bit window values, the per-query extra-slot count (valid
    where unclamped), and the conservative clamp.  A query is clamped when
    it covers more than ``max_probes`` slots *or* when its slot interval
    crosses a boundary of the low-64-bit window (the bytes above the
    trailing eight differ).  The CPFPR byte evaluator charges clamped
    queries as certain positives, as the filters answer them.
    """
    n = lo_mat.shape[0]
    nb = (prefix_bits + 7) // 8
    shift = np.uint64(8 * nb - prefix_bits)
    plo = mask_rows(lo_mat, prefix_bits)
    phi = mask_rows(hi_mat, prefix_bits)
    if nb > 8:
        top_equal = (plo[:, : nb - 8] == phi[:, : nb - 8]).all(axis=1)
    else:
        top_equal = np.ones(n, dtype=bool)
    base = window_values(plo)
    hi64 = window_values(phi)
    diff = np.where(top_equal, hi64 - base, np.uint64(0)) >> shift
    clamped = ~top_equal | (diff > np.uint64(max(0, max_probes - 1)))
    span = np.where(clamped, np.uint64(0), diff).astype(np.int64)
    return plo, base, span, clamped


def expand_slot_rows(
    plo: np.ndarray,
    base: np.ndarray,
    span: np.ndarray,
    prefix_bits: int,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate the covered slot rows for the selected (unclamped) queries.

    ``rows`` indexes into the :func:`byte_slot_bounds` outputs.  Returns the
    flat ``(total, nb)`` slot matrix plus ``offsets`` (length
    ``len(rows) + 1``) delimiting each query's slots within it.
    """
    nb = plo.shape[1]
    shift = np.uint64(8 * nb - prefix_bits)
    counts = span[rows] + 1
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    owners = np.repeat(np.arange(rows.size), counts)
    k = np.arange(total, dtype=np.int64) - offsets[:-1][owners]
    slot64 = base[rows][owners] + (k.astype(np.uint64) << shift)
    out = plo[rows][owners].copy()
    w = min(nb, 8)
    be = slot64.astype(">u8").view(np.uint8).reshape(-1, 8)
    out[:, nb - w :] = be[:, 8 - w :]
    return out, offsets


def prefix_item_bytes(prefix: int, prefix_bits: int) -> bytes:
    """Canonical byte encoding of a ``prefix_bits``-bit prefix value.

    The bytes of the :func:`mask_rows` row of the prefix, so a probe of one
    prefix value (Rosetta's dyadic doubting) hashes what the row-parallel
    construction inserted.
    """
    nb = (prefix_bits + 7) // 8
    return int(prefix << (8 * nb - prefix_bits)).to_bytes(nb, "big")
