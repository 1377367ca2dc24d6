"""LOUDS-Sparse: the per-edge encoding of the lower trie levels.

Below the dense cutoff, SuRF's Fast Succinct Trie switches to three
parallel per-edge arrays, laid out in level order with each node's edges
sorted by label:

* ``S-Labels`` — one byte per edge: the edge's label;
* ``S-HasChild`` — one bit per edge: set iff the edge leads to an
  *internal* node (clear means a leaf edge — the stored prefix ends here);
* ``S-LOUDS`` — one bit per edge: set iff the edge is the *first* edge of
  its node (the classic LOUDS unary node boundary).

Node numbering: the sparse half has ``num_roots`` subtree roots (the
internal nodes entered from the bottom dense level, in level order),
numbered ``0 .. num_roots - 1``; every other internal node is the target of
exactly one has-child edge, and level-order layout makes the ``r``-th set
``S-HasChild`` bit (1-indexed) point at node ``num_roots + r - 1``.  The
edges of node ``n`` occupy positions ``[select1(S-LOUDS, n + 1),
select1(S-LOUDS, n + 2))``.

For *lookup* the implementation keeps a derived ``node_id * 256 + label``
composite array, which level-order layout and per-node label sorting make
strictly increasing — so resolving a batch of edges is one ``searchsorted``
instead of a select-then-scan per edge.  The composite is
navigation acceleration, like the rank directories, and is excluded from
the charged footprint: 10 bits per edge (8 label + has-child + LOUDS),
matching :func:`repro.trie.size_model.louds_sparse_level_bits`.
"""

from __future__ import annotations

import numpy as np

from repro.amq.bitarray import BitArray
from repro.trie.bitvector import RankSelectBitVector
from repro.trie.size_model import SPARSE_BITS_PER_EDGE

__all__ = ["LoudsSparseTrie"]

_FANOUT = 256


class LoudsSparseTrie:
    """The sparse half of a Fast Succinct Trie: labels/has-child/LOUDS arrays.

    Instances are immutable.  Bit-layout invariants:

    * the three arrays are parallel, one entry per edge, level order;
    * within one node the labels are strictly increasing (so the composite
      ``node * 256 + label`` array is strictly increasing globally);
    * every node has at least one edge, hence exactly one set ``S-LOUDS``
      bit, and ``S-LOUDS[0]`` is set whenever any edge exists;
    * the ``r``-th set ``S-HasChild`` bit points at node
      ``num_roots + r - 1``.
    """

    __slots__ = ("num_roots", "num_nodes", "labels", "_has_child", "_louds", "_comp")

    def __init__(
        self,
        labels: np.ndarray,
        has_child: BitArray,
        louds: BitArray,
        num_roots: int,
    ):
        """Adopt prebuilt parallel edge arrays (see the class invariants).

        ``labels`` is a ``uint8`` array; ``has_child`` and ``louds`` are
        bit arrays of the same length; ``num_roots`` counts the sparse
        subtree roots (node ids ``0 .. num_roots - 1``).
        """
        labels = np.asarray(labels, dtype=np.uint8)
        if len(has_child) != labels.size or len(louds) != labels.size:
            raise ValueError("labels, has-child and LOUDS arrays must be parallel")
        if num_roots < 0:
            raise ValueError("root count must be non-negative")
        if labels.size and not louds.get(0):
            raise ValueError("the first edge must open a node (S-LOUDS[0] set)")
        self.num_roots = num_roots
        self.labels = labels
        self._has_child = RankSelectBitVector(has_child)
        self._louds = RankSelectBitVector(louds)
        self.num_nodes = self._louds.count_ones()
        # node id of each edge: cumulative LOUDS rank, 0-based.
        node_of_edge = self._louds.rank1_many(np.arange(1, labels.size + 1)) - 1
        self._comp = node_of_edge * _FANOUT + labels.astype(np.int64)
        if labels.size > 1 and not (self._comp[1:] > self._comp[:-1]).all():
            raise ValueError("labels must be strictly increasing within each node")

    def __len__(self) -> int:
        """Return the number of encoded edges."""
        return int(self.labels.size)

    def num_edges(self) -> int:
        """Return the number of encoded edges (same as ``len``)."""
        return int(self.labels.size)

    def probe_many(
        self, nodes: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve each edge ``labels[i]`` out of ``nodes[i]``: ``(exists, is_leaf, child)``.

        ``child`` is the sparse node id ``num_roots + rank1(S-HasChild,
        pos + 1) - 1``.  Entries whose edge does not exist, or is a leaf,
        return garbage in ``is_leaf`` / ``child``; callers mask with
        ``exists`` (and ``~is_leaf``).
        """
        targets = nodes * _FANOUT + labels
        pos = np.searchsorted(self._comp, targets, side="left")
        safe = np.minimum(pos, max(self._comp.size - 1, 0))
        if self._comp.size == 0:
            empty = np.zeros(nodes.shape, dtype=bool)
            return empty, empty, np.zeros(nodes.shape, dtype=np.int64)
        exists = (pos < self._comp.size) & (self._comp[safe] == targets)
        # One fused kernel pass over S-HasChild: the bit at the edge slot
        # decides leaf-ness and rank1(slot + 1) rebases to the child id.
        has_child, rank = self._has_child.get_and_rank1_many(safe)
        child = self.num_roots + rank - 1
        return exists, ~has_child, child

    def any_label_between_many(
        self, nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Return whether each ``nodes[i]`` has an edge labelled in ``[lo[i], hi[i]]``.

        Empty intervals (``lo > hi``) are False; bounds are clipped to the
        byte alphabet.
        """
        valid = lo <= hi
        lo_c = np.clip(lo, 0, _FANOUT - 1)
        hi_c = np.clip(hi, 0, _FANOUT - 1)
        start = np.searchsorted(self._comp, nodes * _FANOUT + lo_c, side="left")
        end = np.searchsorted(self._comp, nodes * _FANOUT + hi_c, side="right")
        return valid & (end > start)

    def size_in_bits(self) -> int:
        """Return the charged footprint: 10 bits per edge.

        8-bit label + has-child bit + LOUDS bit; rank directories and the
        derived composite array are navigation acceleration and excluded,
        per the SuRF size convention.
        """
        return SPARSE_BITS_PER_EDGE * int(self.labels.size)

    def to_bytes(self) -> tuple[bytes, bytes, bytes]:
        """Serialise ``(S-Labels, S-HasChild, S-LOUDS)``."""
        return (
            self.labels.tobytes(),
            self._has_child.to_bytes(),
            self._louds.to_bytes(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Return a debugging summary."""
        return (
            f"LoudsSparseTrie(nodes={self.num_nodes}, edges={len(self)}, "
            f"roots={self.num_roots})"
        )
