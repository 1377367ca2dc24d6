"""Bit vector with rank/select support.

The LOUDS encodings navigate the trie exclusively through ``rank1``,
``rank0`` and ``select1`` queries over their bit vectors.  This
implementation keeps the raw bits in a packed :class:`~repro.amq.bitarray.BitArray`
and a per-512-bit-block cumulative popcount directory, giving O(1) rank and
O(log n) select.  The reported payload size excludes the rank directory,
matching the size accounting convention of the SuRF paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.amq.bitarray import BitArray

_BLOCK_BYTES = 64  # 512-bit rank blocks.

_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


class RankSelectBitVector:
    """An immutable bit vector supporting rank and select queries.

    Layout invariants: bit ``i`` lives in byte ``i >> 3`` at MSB-first
    position ``i & 7`` (the :class:`~repro.amq.bitarray.BitArray`
    convention), and ``_byte_cumulative[b]`` holds the popcount of bytes
    ``[0, b)`` — so ``rank1(i)`` is one directory lookup plus a partial-byte
    popcount, for scalar and batched callers alike.
    """

    def __init__(self, bits: Sequence[bool] | BitArray):
        """Wrap ``bits`` (a :class:`BitArray` is adopted, not copied)."""
        if isinstance(bits, BitArray):
            self._bits = bits
        else:
            self._bits = BitArray.from_bits(bits)
        self.num_bits = len(self._bits)
        self._build_rank_directory()

    def _build_rank_directory(self) -> None:
        byte_buffer = np.frombuffer(self._bits.to_bytes(), dtype=np.uint8)
        self._byte_buffer = byte_buffer
        byte_popcounts = _POPCOUNT_TABLE[byte_buffer]
        self._byte_cumulative = np.concatenate(
            ([0], np.cumsum(byte_popcounts, dtype=np.int64))
        )
        self._total_ones = int(self._byte_cumulative[-1])

    def __len__(self) -> int:
        """Return the number of bits in the vector."""
        return self.num_bits

    def get(self, index: int) -> bool:
        """Return the bit at ``index``."""
        return self._bits.get(index)

    def get_many(self, indices) -> np.ndarray:
        """Return a boolean array with the bit value at every index.

        Vectorised :meth:`get`: accepts any integer iterable or numpy array;
        every index must be in ``[0, num_bits)``.
        """
        return self._bits.get_many(indices)

    def __getitem__(self, index: int) -> bool:
        """Return the bit at ``index`` (sequence protocol)."""
        return self.get(index)

    def rank1(self, index: int) -> int:
        """Return the number of set bits in positions ``[0, index)``."""
        if index <= 0:
            return 0
        index = min(index, self.num_bits)
        full_bytes = index >> 3
        count = int(self._byte_cumulative[full_bytes])
        for position in range(full_bytes << 3, index):
            if self._bits.get(position):
                count += 1
        return count

    def rank0(self, index: int) -> int:
        """Return the number of zero bits in positions ``[0, index)``."""
        index = max(0, min(index, self.num_bits))
        return index - self.rank1(index)

    def rank1_many(self, indices) -> np.ndarray:
        """Return ``rank1`` at every index, vectorised.

        Bit-exact restatement of :meth:`rank1` (indices are clipped to
        ``[0, num_bits]`` the same way): one gather into the cumulative
        byte directory plus a masked-partial-byte popcount per index — the
        primitive the batched LOUDS traversals are built on.
        """
        idx = np.clip(
            np.asarray(indices, dtype=np.int64).ravel(), 0, self.num_bits
        )
        full_bytes = idx >> 3
        partial = idx & 7
        counts = self._byte_cumulative[full_bytes]
        # The top `partial` bits of the boundary byte (MSB-first layout).
        # A clipped index of num_bits on a byte-aligned vector has
        # full_bytes == len(buffer); the mask is 0 there, so reading the
        # clamped byte is safe.
        buffer = self._byte_buffer
        if buffer.size:
            safe = np.minimum(full_bytes, buffer.size - 1)
            masks = ((0xFF00 >> partial) & 0xFF).astype(np.uint8)
            counts = counts + _POPCOUNT_TABLE[buffer[safe] & masks]
        return counts.astype(np.int64)

    def get_and_rank1_many(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Fused LOUDS step: ``(bit at i, rank1(i + 1))`` for every index.

        One kernel pass instead of a :meth:`get_many` + :meth:`rank1_many`
        pair — the inner loop of every batched LOUDS-Dense/Sparse
        traversal step.  Every index must be in ``[0, num_bits)`` (no
        clipping: traversals only ever ask about positions they hold).
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= self.num_bits:
            raise IndexError("bit index out of range in get_and_rank1_many")
        return kernels.bitvector_get_rank1(
            self._byte_buffer, self._byte_cumulative, self.num_bits, idx
        )

    def select1(self, rank: int) -> int:
        """Return the position of the ``rank``-th set bit (1-indexed)."""
        if rank <= 0 or rank > self._total_ones:
            raise ValueError(f"select1 rank {rank} out of range (1..{self._total_ones})")
        # Binary search over the cumulative byte popcounts.
        lo, hi = 0, len(self._byte_cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._byte_cumulative[mid] < rank:
                lo = mid + 1
            else:
                hi = mid
        byte_index = lo - 1
        count = int(self._byte_cumulative[byte_index])
        for position in range(byte_index << 3, min(self.num_bits, (byte_index + 1) << 3)):
            if self._bits.get(position):
                count += 1
                if count == rank:
                    return position
        raise AssertionError("select1 directory inconsistent")  # pragma: no cover

    def count_ones(self) -> int:
        """Return the total number of set bits."""
        return self._total_ones

    def to_bytes(self) -> bytes:
        """Serialise the payload bits (MSB-first per byte, no directory)."""
        return self._bits.to_bytes()

    def size_in_bits(self) -> int:
        """Payload size in bits (excludes the rank directory, as in SuRF)."""
        return self.num_bits
