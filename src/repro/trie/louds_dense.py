"""LOUDS-Dense: the bitmap-per-node encoding of the top trie levels.

SuRF's Fast Succinct Trie encodes its uppermost (branchy) levels with two
256-bit bitmaps per node, laid out in level order:

* ``D-Labels`` — bit ``256 * n + c`` is set iff node ``n`` has an outgoing
  edge labelled byte ``c``;
* ``D-HasChild`` — bit ``256 * n + c`` is set iff that edge leads to an
  *internal* child (a node with its own bitmaps).  A set label bit with a
  clear has-child bit is a **leaf edge**: the stored prefix ends with that
  byte and, in this repository's prefix-free tries, covers its entire
  subtree of the key space.

Navigation is pure rank arithmetic on those bitmaps.  Nodes are numbered in
level order with the root as node 0; because every internal child is marked
by exactly one set ``D-HasChild`` bit and the layout is level order, the
child reached through the edge at bit position ``pos`` is node
``rank1(D-HasChild, pos + 1)``.  (:class:`~repro.trie.fst.FastSuccinctTrie`
re-bases that rank when the edge crosses into the LOUDS-Sparse half.)

The charged footprint is 512 bits per node — the two bitmap payloads,
excluding the rank directories, matching
:func:`repro.trie.size_model.louds_dense_level_bits` and the SuRF paper's
accounting.
"""

from __future__ import annotations

import numpy as np

from repro.amq.bitarray import BitArray
from repro.trie.bitvector import RankSelectBitVector
from repro.trie.size_model import DENSE_BITS_PER_NODE

__all__ = ["LoudsDenseTrie"]

#: Alphabet size: one bit per possible byte label in each per-node bitmap.
FANOUT = 256


class LoudsDenseTrie:
    """The dense half of a Fast Succinct Trie: two 256-bit bitmaps per node.

    Instances are immutable and hold *only* the encoding — which levels of
    the original trie they cover, and how edges leaving the bottom dense
    level connect to the sparse half, is the
    :class:`~repro.trie.fst.FastSuccinctTrie`'s concern.

    Bit-layout invariants:

    * both bitmaps are exactly ``256 * num_nodes`` bits long;
    * a set ``D-HasChild`` bit implies the same ``D-Labels`` bit is set;
    * node ids are dense level-order ranks: the ``j``-th set ``D-HasChild``
      bit (1-indexed, in position order) points at node ``j``.
    """

    __slots__ = ("num_nodes", "_labels", "_has_child")

    def __init__(self, label_bits: BitArray, child_bits: BitArray, num_nodes: int):
        """Adopt prebuilt bitmaps (``256 * num_nodes`` bits each).

        Use :meth:`from_positions` to build from set-bit index arrays; this
        constructor only wraps and validates the invariants above.
        """
        if num_nodes < 0:
            raise ValueError("node count must be non-negative")
        if len(label_bits) != FANOUT * num_nodes or len(child_bits) != FANOUT * num_nodes:
            raise ValueError(
                f"dense bitmaps must hold {FANOUT} bits per node "
                f"({FANOUT * num_nodes} total, got {len(label_bits)}/{len(child_bits)})"
            )
        self.num_nodes = num_nodes
        self._labels = RankSelectBitVector(label_bits)
        self._has_child = RankSelectBitVector(child_bits)

    @classmethod
    def from_positions(
        cls, label_positions, child_positions, num_nodes: int
    ) -> "LoudsDenseTrie":
        """Build from the set-bit positions of the two bitmaps.

        ``label_positions`` / ``child_positions`` are iterables (or numpy
        arrays) of bit indices ``256 * node + label``; ``child_positions``
        must be a subset of ``label_positions``.
        """
        labels = BitArray(FANOUT * num_nodes)
        labels.set_many(label_positions)
        children = BitArray(FANOUT * num_nodes)
        children.set_many(child_positions)
        return cls(labels, children, num_nodes)

    def __len__(self) -> int:
        """Return the number of encoded (internal) nodes."""
        return self.num_nodes

    def num_edges(self) -> int:
        """Return the total number of edges (set ``D-Labels`` bits)."""
        return self._labels.count_ones()

    def probe_many(
        self, nodes: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve each edge ``labels[i]`` out of ``nodes[i]``: ``(exists, is_leaf, child)``.

        ``child`` is the level-order rank of the internal child
        (``rank1(D-HasChild, pos + 1)``).  Entries whose edge does not
        exist, or is a leaf, return garbage in ``is_leaf`` / ``child``;
        callers mask with ``exists`` (and ``~is_leaf``).
        """
        pos = nodes * FANOUT + labels
        exists = self._labels.get_many(pos)
        # One fused kernel pass over D-HasChild: the bit at pos decides
        # leaf-ness and rank1(pos + 1) is the child id.
        has_child, child = self._has_child.get_and_rank1_many(pos)
        return exists, ~has_child, child

    def any_label_between_many(
        self, nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Return whether each ``nodes[i]`` has an edge labelled in ``[lo[i], hi[i]]``.

        An empty interval (``lo > hi``) is False; bounds are clipped to the
        byte alphabet, so callers can pass ``lo = c + 1`` / ``hi = c - 1``
        without boundary checks.
        """
        valid = lo <= hi
        lo_c = np.clip(lo, 0, FANOUT - 1)
        hi_c = np.clip(hi, 0, FANOUT - 1)
        start = self._labels.rank1_many(nodes * FANOUT + lo_c)
        end = self._labels.rank1_many(nodes * FANOUT + hi_c + 1)
        return valid & (end > start)

    def size_in_bits(self) -> int:
        """Return the charged footprint: 512 bitmap bits per node.

        Rank directories are excluded, per the SuRF size convention shared
        with :meth:`RankSelectBitVector.size_in_bits`.
        """
        return DENSE_BITS_PER_NODE * self.num_nodes

    def to_bytes(self) -> tuple[bytes, bytes]:
        """Serialise the two bitmaps (``D-Labels``, ``D-HasChild``)."""
        return self._labels.to_bytes(), self._has_child.to_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Return a debugging summary."""
        return f"LoudsDenseTrie(nodes={self.num_nodes}, edges={self.num_edges()})"
