"""Standard Bloom filter.

This is the AMQ the reference Proteus implementation uses (Section 4.3).
The hash function count follows the paper's rule ``ceil(m/n * ln 2)`` capped
at :data:`MAX_HASH_FUNCTIONS` (32).  The analytic false positive probability
uses the general load formula

    p = (1 - e^{-kn/m}) ^ k

rather than Equation 6's ``0.5^k`` shorthand: the two coincide only when
``k`` equals the uncapped optimum ``m/n * ln 2``, and the CPFPR model
routinely evaluates short, over-provisioned prefix sets where ``k`` is
capped at 32 and the real per-probe FPR is far below ``0.5^32``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import kernels
from repro.amq.bitarray import BitArray
from repro.amq.hashing import hash_bytes_pair, hash_pair, premixed_pair_seeds
from repro.amq.interface import AMQ

#: The paper caps the hash function count at 32 (Section 4.3, footnote 2).
MAX_HASH_FUNCTIONS = 32


def bloom_hash_count(num_bits: int, num_items: int) -> int:
    """Return the number of hash functions for ``num_bits`` bits and ``num_items`` items."""
    if num_items <= 0 or num_bits <= 0:
        return 1
    optimal = math.ceil(num_bits / num_items * math.log(2))
    return max(1, min(MAX_HASH_FUNCTIONS, optimal))


def bloom_fpr(num_bits: int, num_items: int, num_hashes: int | None = None) -> float:
    """Return the analytic FPR ``(1 - e^{-kn/m})^k`` for the actual load.

    ``num_hashes`` defaults to the paper's rule (:func:`bloom_hash_count`).
    Equation 6's ``0.5^k`` form is recovered when ``k == m/n * ln 2`` exactly;
    for any other load — notably the over-provisioned short-prefix filters
    the CPFPR model enumerates — this general form is the correct one.
    """
    if num_items <= 0:
        return 0.0
    if num_bits <= 0:
        return 1.0
    k = num_hashes if num_hashes is not None else bloom_hash_count(num_bits, num_items)
    if k <= 0:
        raise ValueError("hash function count must be positive")
    return (1.0 - math.exp(-k * num_items / num_bits)) ** k


def _word(item: int) -> int:
    """An item in ``[-2**63, 0)`` as its 64-bit pattern; anything else as is.

    Stored width-64 keys and their prefixes are negative int64 values; the
    bulk kernels hash them by their bits (``astype(np.uint64)``), so the
    scalar paths must too.  Non-negative items are unchanged.
    """
    return item + (1 << 64) if -(1 << 63) <= item < 0 else item


class BloomFilter(AMQ):
    """A standard Bloom filter over integer items.

    Every integer in ``[-2**63, 2**64)`` hashes by its 64-bit pattern, so
    an int64 item and its ``uint64`` reading agree; wider non-negative
    integers hash bytewise.  Probe positions are derived with double
    hashing, which keeps per-probe cost low even when the optimal hash
    count is large (short prefixes can have very high bits-per-item
    ratios).
    """

    def __init__(self, num_bits: int, num_items: int, seed: int = 0):
        if num_bits <= 0:
            raise ValueError("a Bloom filter needs a positive number of bits")
        self.num_bits = int(num_bits)
        self.expected_items = max(0, int(num_items))
        self.num_hashes = bloom_hash_count(self.num_bits, max(1, self.expected_items))
        self.seed = seed
        self._s1, self._s2 = premixed_pair_seeds(seed)
        self.bits = BitArray(self.num_bits)
        self._inserted = 0

    @classmethod
    def from_items(
        cls, items: Sequence[int], num_bits: int, seed: int = 0
    ) -> "BloomFilter":
        """Build a filter sized at ``num_bits`` holding every item in ``items``."""
        bloom = cls(num_bits, len(items), seed=seed)
        bloom.add_many(items)
        return bloom

    @property
    def premixed_seeds(self) -> tuple[int, int]:
        """The ``(s1, s2)`` seed constants the word-item hashes mix in.

        A word item ``v`` hashes to ``h1 = mix64(v ^ s1)`` and ``h2 =
        mix64(v ^ s2) | 1`` (:func:`~repro.amq.hashing.premixed_pair_seeds`).
        """
        return self._s1, self._s2

    def _positions(self, item: int) -> Iterator[int]:
        # Enhanced double hashing (Dillinger & Manolios), probe i at
        # h1 + i*h2 + (i^3 - i)/6, generated incrementally: the cubic term
        # removes the measurable FPR penalty plain double hashing pays at
        # small m, keeping empirical FPRs on the analytic curve the CPFPR
        # model computes.  A generator so negative lookups stop hashing at
        # their first unset bit.
        h1, h2 = hash_pair(_word(item), self.seed)
        m = self.num_bits
        x, y = h1 % m, h2 % m
        yield x
        for i in range(1, self.num_hashes):
            x = (x + y) % m
            y = (y + i) % m
            yield x

    def add(self, item: int) -> None:
        self.bits.set_many(self._positions(item))
        self._inserted += 1

    @staticmethod
    def _as_word_array(items: Iterable[int]) -> tuple[np.ndarray | None, list | None]:
        """Try to view ``items`` as an int64 array of 64-bit patterns.

        Returns ``(array, None)`` when the bulk path applies, or ``(None,
        materialised_items)`` when some item is wider than a word or not an
        integer — those fall back to the scalar hash, which also owns the
        error reporting for invalid items.
        """
        if isinstance(items, np.ndarray) and items.dtype.kind in "iu":
            return items.astype(np.int64, copy=False), None
        concrete = list(items)
        # Inspect the natural dtype first: coercing straight to int64
        # would silently truncate floats that the scalar path rejects.
        probe = np.asarray(concrete)
        if probe.dtype.kind not in "iu":
            return None, concrete  # floats, big ints (object), etc.
        return probe.astype(np.int64, copy=False), None

    def _hash_pairs_scalar(self, items: list) -> tuple[np.ndarray, np.ndarray]:
        """Hash arbitrary items (big ints, any width) via the scalar pair."""
        h1 = np.empty(len(items), dtype=np.uint64)
        h2 = np.empty(len(items), dtype=np.uint64)
        for i, item in enumerate(items):
            a, b = hash_pair(_word(item), self.seed)
            h1[i] = a
            h2[i] = b
        return h1, h2

    def _positions_from_hashes(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Probe-position matrix from precomputed hash pairs (fallback path).

        The hashing of non-word items is irreducibly scalar, but the probe
        recurrence is not: this runs it column-parallel so the fallback
        costs one batched pass instead of ``k`` Python iterations per item.
        """
        m = np.uint64(self.num_bits)
        x, y = h1 % m, h2 % m
        out = np.empty((self.num_hashes, h1.shape[0]), dtype=np.uint64)
        out[0] = x
        for i in range(1, self.num_hashes):
            x = (x + y) % m
            y = (y + np.uint64(i)) % m
            out[i] = x
        return out

    def add_many(self, items: Iterable[int]) -> None:
        arr, fallback = self._as_word_array(items)
        if arr is not None:
            if arr.size:
                kernels.bloom_add(
                    self.bits.mutable_words(), self.num_bits, arr,
                    self._s1, self._s2, self.num_hashes,
                )
            self._inserted += int(arr.size)
            return
        h1, h2 = self._hash_pairs_scalar(fallback)
        if h1.size:
            self.bits.set_many(self._positions_from_hashes(h1, h2))
        self._inserted += len(fallback)

    def contains(self, item: int) -> bool:
        bits = self.bits
        return all(bits.get(position) for position in self._positions(item))

    # ------------------------------------------------------------------ #
    # Byte-string items (the ByteKeySet canonical-prefix-bytes domain)   #
    # ------------------------------------------------------------------ #

    def _positions_bytes(self, data: bytes) -> Iterator[int]:
        """Scalar probe positions for a byte item (same recurrence as ints)."""
        h1, h2 = hash_bytes_pair(data, self.seed)
        m = self.num_bits
        x, y = h1 % m, h2 % m
        yield x
        for i in range(1, self.num_hashes):
            x = (x + y) % m
            y = (y + i) % m
            yield x

    def _hash_rows_pair(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-parallel :func:`repro.amq.hashing.hash_bytes_pair`."""
        # Imported here: repro.keys.bytestr pulls in the hashing substrate,
        # which would otherwise close an import cycle through this module.
        from repro.keys.bytestr import hash_rows_pair

        return hash_rows_pair(mat, self.seed)

    def add_bytes(self, data: bytes) -> None:
        """Insert one byte-string item."""
        self.bits.set_many(self._positions_bytes(data))
        self._inserted += 1

    def contains_bytes(self, data: bytes) -> bool:
        """Scalar membership probe for a byte-string item."""
        bits = self.bits
        return all(bits.get(position) for position in self._positions_bytes(data))

    def add_bytes_rows(self, mat: np.ndarray) -> None:
        """Insert every row of a ``(n, nb)`` uint8 item matrix in bulk.

        Bit-exact with ``add_bytes(bytes(row))`` per row: the row hash is
        the vectorised :func:`~repro.amq.hashing.hash_bytes_64` and the
        probe recurrence runs column-parallel.
        """
        if mat.shape[0]:
            h1, h2 = self._hash_rows_pair(mat)
            self.bits.set_many(self._positions_from_hashes(h1, h2))
        self._inserted += int(mat.shape[0])

    def contains_many(self, items: Iterable[int]) -> np.ndarray:
        """Vectorised :meth:`contains`: one boolean per item.

        Word-sized items are hashed and probed by the kernel backend in
        bulk; anything else (big string-key prefixes, for instance) hashes
        scalar but still probes in one batched pass.
        """
        arr, fallback = self._as_word_array(items)
        if arr is None:
            if not fallback:
                return np.zeros(0, dtype=bool)
            h1, h2 = self._hash_pairs_scalar(fallback)
            positions = self._positions_from_hashes(h1, h2)
            probed = self.bits.get_many(positions.ravel())
            return probed.reshape(positions.shape).all(axis=0)
        if arr.size == 0:
            return np.zeros(0, dtype=bool)
        return kernels.bloom_contains(
            self.bits.words(), self.num_bits, arr,
            self._s1, self._s2, self.num_hashes,
        )

    def size_in_bits(self) -> int:
        return self.bits.size_in_bits()

    def theoretical_fpr(self) -> float:
        return bloom_fpr(
            self.num_bits,
            max(self.expected_items, self._inserted, 1),
            num_hashes=self.num_hashes,
        )

    @property
    def inserted_items(self) -> int:
        """Number of items inserted so far."""
        return self._inserted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"items={self._inserted})"
        )
