"""The Fast Succinct Trie: LOUDS-Dense top + LOUDS-Sparse bottom.

This is the physical realisation of the succinct layout that
:func:`repro.trie.size_model.fst_size_estimate` models: the top ``cutoff``
levels of a prefix-free byte trie encoded as
:class:`~repro.trie.louds_dense.LoudsDenseTrie` bitmaps, the remaining
levels as :class:`~repro.trie.louds_sparse.LoudsSparseTrie` arrays, with
the cutoff chosen by :func:`repro.trie.size_model.fst_prefix_cutoff` to
minimise the total footprint over all dense prefixes.  ``size_in_bits()``
is therefore *measured* — it is exactly what the stored bitmaps and arrays
charge — and is bounded below by the model's per-level-minimum estimate.

The trie stores a prefix-free set of byte strings, each read as a
key-space prefix: a stored prefix ``p`` covers the key interval ``[p·00…,
p·FF…]``, so point probes ask "is a stored prefix a prefix of this key?"
and range probes ask "does any stored prefix's interval intersect ``[lo,
hi]``?".  Both exploit the prefix-free-trie invariant that *every node has
a leaf descendant*: a traversal that reaches any edge strictly inside the
query interval can answer True immediately, which makes the range walk two
point-like descents (a lo-tight and a hi-tight walker) plus one
interior-label check per node — each step pure rank arithmetic, run
level-synchronously across a whole batch of probes.  The scalar probes are
one-row batches.

>>> fst = FastSuccinctTrie.from_prefixes([b"ab", b"ad", b"x"])
>>> fst.match_prefix_of(b"adz"), fst.match_prefix_of(b"az")
(True, False)
>>> fst.range_overlaps(b"ac", b"ae"), fst.range_overlaps(b"b", b"w")
(True, False)
>>> fst.size_in_bits() == fst.size_breakdown()["dense"] + fst.size_breakdown()["sparse"]
True
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.amq.bitarray import BitArray
from repro.trie.louds_dense import LoudsDenseTrie
from repro.trie.louds_sparse import LoudsSparseTrie
from repro.trie.size_model import fst_prefix_cutoff, fst_size_estimate
from repro.trie.sorted_index import stored_prefix_array
from repro.workloads.batch import decode_ints

__all__ = ["FastSuccinctTrie", "FSTPrefixIndex"]

_FANOUT = 256


def _byte_matrix(values: np.ndarray, num_bytes: int) -> np.ndarray:
    """Render unsigned keys as an ``(n, num_bytes)`` big-endian byte matrix.

    ``values`` are non-negative ``int64`` or ``uint64`` words holding at
    most ``num_bytes`` significant bytes.
    """
    words = np.asarray(values).astype(">u8")
    return words.view(np.uint8).reshape(-1, 8)[:, 8 - num_bytes :]


def _row(key: bytes) -> np.ndarray:
    """One byte string as a ``(1, len(key))`` byte matrix."""
    return np.frombuffer(key, dtype=np.uint8).reshape(1, -1)


class FastSuccinctTrie:
    """A prefix-free byte-string set in the physical LOUDS-DS layout.

    Structural invariants:

    * node-levels ``0 .. cutoff - 1`` live in the dense half (level-order
      node ids, root = 0), node-levels ``cutoff ..`` in the sparse half
      (roots = the internal level-``cutoff`` nodes, in level order);
    * an edge from the bottom dense level into an internal child crosses
      halves: its dense child rank ``r`` re-bases to sparse root
      ``r - num_dense_nodes``;
    * leaves are *edges* (label bit set / has-child clear), never nodes, so
      the stored footprint is exactly the model's 512 bits per dense node
      plus 10 bits per sparse edge.
    """

    __slots__ = (
        "height",
        "num_leaves",
        "cutoff",
        "edges_per_level",
        "internal_per_level",
        "_dense",
        "_sparse",
    )

    def __init__(
        self,
        dense: LoudsDenseTrie | None,
        sparse: LoudsSparseTrie | None,
        cutoff: int,
        height: int,
        num_leaves: int,
        edges_per_level: list[int],
        internal_per_level: list[int],
    ):
        """Adopt prebuilt halves; use the ``from_*`` builders instead."""
        self._dense = dense
        self._sparse = sparse
        self.cutoff = cutoff
        self.height = height
        self.num_leaves = num_leaves
        self.edges_per_level = edges_per_level
        self.internal_per_level = internal_per_level

    # ------------------------------------------------------------------ #
    # Builders                                                           #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_prefixes(
        cls, prefixes: Iterable[bytes], cutoff: int | None = None
    ) -> "FastSuccinctTrie":
        """Build from an iterable of byte-string prefixes (any order).

        Input is sorted and deduplicated, then routed through the
        kernel-backed bulk build :meth:`from_sorted_prefix_bytes`.
        """
        return cls.from_sorted_prefix_bytes(
            sorted(set(bytes(p) for p in prefixes)), cutoff
        )

    @classmethod
    def from_sorted_prefix_bytes(
        cls, prefixes: Sequence[bytes], cutoff: int | None = None
    ) -> "FastSuccinctTrie":
        """Bulk-build from sorted byte-string prefixes, vectorised.

        Input must be in ascending lexicographic order with no duplicates
        (the layout SuRF's vectorised prefix extraction produces); a string
        extending an earlier, shorter one is dropped, as the shorter one
        already covers its keys (no answer loses a true positive).  The
        whole trie shape — per-level edge labels, parent groups and leaf
        flags — then falls out of one :func:`repro.kernels.trie_levels` pass
        over the padded byte matrix, and both LOUDS halves are assembled
        with array arithmetic, with no per-node Python walk.
        """
        kept: list[bytes] = []
        previous = b""
        for prefix in prefixes:
            if not prefix:
                raise ValueError("cannot insert an empty prefix")
            if previous and prefix[: len(previous)] == previous:
                continue  # covered by the previously kept (shorter) prefix
            kept.append(prefix)
            previous = prefix
        if not kept:
            return cls(None, None, 0, 0, 0, [], [1])
        n = len(kept)
        lengths = np.fromiter((len(p) for p in kept), dtype=np.int64, count=n)
        height = int(lengths.max())
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = np.frombuffer(b"".join(kept), dtype=np.uint8)
        mat = np.zeros((n, height), dtype=np.uint8)
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        cols = np.arange(flat.size, dtype=np.int64) - np.repeat(
            offsets[:-1], lengths
        )
        mat[rows, cols] = flat
        labels, parents, leaves, edge_counts, group_counts = kernels.trie_levels(
            mat, lengths
        )
        edges = edge_counts.tolist()
        internal = group_counts.tolist()
        if cutoff is None:
            cutoff, _ = fst_prefix_cutoff(edges, internal)
        if not 0 <= cutoff <= height:
            raise ValueError(f"dense cutoff {cutoff} outside [0, {height}]")
        edge_offsets = np.concatenate(([0], np.cumsum(edge_counts)))
        node_offsets = np.concatenate(([0], np.cumsum(group_counts)))
        dense = None
        if cutoff > 0:
            end = int(edge_offsets[cutoff])
            level_of = np.repeat(
                np.arange(cutoff, dtype=np.int64), edge_counts[:cutoff]
            )
            pos = (node_offsets[level_of] + parents[:end]) * _FANOUT + labels[
                :end
            ].astype(np.int64)
            dense = LoudsDenseTrie.from_positions(
                pos, pos[~leaves[:end]], int(node_offsets[cutoff])
            )
        sparse = None
        if cutoff < height:
            start = int(edge_offsets[cutoff])
            flat_labels = labels[start:]
            par = parents[start:]
            level_of = np.repeat(
                np.arange(cutoff, height, dtype=np.int64), edge_counts[cutoff:]
            )
            # First edge of each node: parent ids restart per level, so a
            # node boundary is a parent change *or* a level change.
            first = np.empty(par.size, dtype=bool)
            first[0] = True
            first[1:] = (par[1:] != par[:-1]) | (level_of[1:] != level_of[:-1])
            child_bits = BitArray(flat_labels.size)
            child_bits.set_many(np.nonzero(~leaves[start:])[0])
            louds_bits = BitArray(flat_labels.size)
            louds_bits.set_many(np.nonzero(first)[0])
            sparse = LoudsSparseTrie(
                flat_labels, child_bits, louds_bits, int(group_counts[cutoff])
            )
        return cls(dense, sparse, cutoff, height, n, edges, internal)

    @classmethod
    def from_uniform_prefixes(
        cls, prefixes: np.ndarray, num_bytes: int, cutoff: int | None = None
    ) -> "FastSuccinctTrie":
        """Bulk-build from sorted distinct equal-length prefixes, vectorised.

        ``prefixes`` is a sorted distinct ``int64`` or ``uint64`` array,
        each value an unsigned ``num_bytes``-byte big-endian string (what
        :func:`~repro.workloads.batch.decode_ints` makes of a key set's
        stored prefixes, padded to whole bytes).
        Uniform depth means every node above ``num_bytes`` is internal and
        every bottom edge is a leaf, so each level's label, LOUDS and
        has-child content falls out of a shift + ``np.unique`` per level,
        with no per-node walk.
        """
        prefixes = np.asarray(prefixes)
        if num_bytes <= 0:
            raise ValueError("prefix byte length must be positive")
        if prefixes.size == 0:
            return cls(None, None, 0, 0, 0, [], [1])
        # per_level[l] = sorted distinct l-byte prefixes, l in 1..num_bytes.
        per_level: list[np.ndarray] = [None] * (num_bytes + 1)  # type: ignore[list-item]
        per_level[num_bytes] = prefixes
        for depth in range(num_bytes - 1, 0, -1):
            parents = per_level[depth + 1] >> 8
            keep = np.empty(parents.size, dtype=bool)
            keep[0] = True
            np.not_equal(parents[1:], parents[:-1], out=keep[1:])
            per_level[depth] = parents[keep]
        edges = [int(per_level[d].size) for d in range(1, num_bytes + 1)]
        internal = [1] + edges[:-1]
        if cutoff is None:
            cutoff, _ = fst_prefix_cutoff(edges, internal)
        if not 0 <= cutoff <= num_bytes:
            raise ValueError(f"dense cutoff {cutoff} outside [0, {num_bytes}]")
        node_offsets = np.concatenate(([0], np.cumsum(internal, dtype=np.int64)))
        dense = None
        if cutoff > 0:
            label_chunks = []
            child_chunks = []
            for depth in range(1, cutoff + 1):
                level = per_level[depth]
                parent_ids = (
                    np.searchsorted(per_level[depth - 1], level >> 8)
                    if depth > 1
                    else np.zeros(level.size, dtype=np.int64)
                )
                pos = (node_offsets[depth - 1] + parent_ids) * _FANOUT + (
                    level & 0xFF
                ).astype(np.int64)
                label_chunks.append(pos)
                if depth < num_bytes:
                    child_chunks.append(pos)
            dense = LoudsDenseTrie.from_positions(
                np.concatenate(label_chunks),
                np.concatenate(child_chunks)
                if child_chunks
                else np.zeros(0, dtype=np.int64),
                int(node_offsets[cutoff]),
            )
        sparse = None
        if cutoff < num_bytes:
            label_chunks = []
            louds_flags = []
            child_flags = []
            for depth in range(cutoff + 1, num_bytes + 1):
                level = per_level[depth]
                label_chunks.append(level & 0xFF)
                parents = level >> 8
                first = np.empty(level.size, dtype=bool)
                first[0] = True
                np.not_equal(parents[1:], parents[:-1], out=first[1:])
                louds_flags.append(first)
                child_flags.append(
                    np.full(level.size, depth < num_bytes, dtype=bool)
                )
            flat_labels = np.concatenate(label_chunks).astype(np.uint8)
            louds_mask = np.concatenate(louds_flags)
            child_mask = np.concatenate(child_flags)
            child_bits = BitArray(flat_labels.size)
            child_bits.set_many(np.nonzero(child_mask)[0])
            louds_bits = BitArray(flat_labels.size)
            louds_bits.set_many(np.nonzero(louds_mask)[0])
            num_roots = internal[cutoff] if cutoff > 0 else 1
            sparse = LoudsSparseTrie(flat_labels, child_bits, louds_bits, num_roots)
        return cls(
            dense, sparse, cutoff, num_bytes, int(prefixes.size), edges, internal
        )

    # ------------------------------------------------------------------ #
    # Level dispatch                                                     #
    # ------------------------------------------------------------------ #

    def _part(self, level: int):
        """Return ``(half, rebase)`` for node-level ``level``.

        ``rebase`` is what to subtract from a returned child rank so it is
        a valid node id *at the next level*: the dense node count on the
        dense→sparse crossing level, 0 everywhere else.
        """
        if level < self.cutoff:
            assert self._dense is not None
            rebase = self._dense.num_nodes if level == self.cutoff - 1 else 0
            return self._dense, rebase
        assert self._sparse is not None
        return self._sparse, 0

    # ------------------------------------------------------------------ #
    # Point probes                                                       #
    # ------------------------------------------------------------------ #

    def match_prefix_of(self, key: bytes) -> bool:
        """Return whether a stored prefix is a prefix of ``key``.

        Keys shorter than every stored prefix on their path are not
        covered.  A one-row :meth:`may_contain_matrix` call.
        """
        return bool(self.may_contain_matrix(_row(key))[0])

    def may_contain_many(self, keys: np.ndarray, num_bytes: int) -> np.ndarray:
        """Vectorise :meth:`match_prefix_of` over an unsigned key array.

        ``keys`` are unsigned ``num_bytes``-byte big-endian values
        (``num_bytes <= 8``, ``int64`` or ``uint64``); the walk is
        level-synchronous, one vectorised probe per level over the
        still-active queries.
        """
        keys = np.asarray(keys)
        if self.num_leaves == 0 or keys.size == 0:
            return np.zeros(keys.size, dtype=bool)
        return self.may_contain_matrix(_byte_matrix(keys, num_bytes))

    def may_contain_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Vectorise :meth:`match_prefix_of` over an ``(n, L)`` byte matrix.

        Each row is one key rendered big-endian, one byte per column — the
        layout byte-string key sets store natively, and what the int64
        entry point expands its words into.  Any key length works: the
        walk runs ``min(L, height)`` levels.
        """
        mat = mat.astype(np.int64, copy=False)  # uint8 would wrap in c+1
        num_bytes = mat.shape[1]
        result = np.zeros(mat.shape[0], dtype=bool)
        if self.num_leaves == 0 or mat.shape[0] == 0:
            return result
        node = np.zeros(mat.shape[0], dtype=np.int64)
        active = np.ones(mat.shape[0], dtype=bool)
        for level in range(min(num_bytes, self.height)):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            half, rebase = self._part(level)
            exists, is_leaf, child = half.probe_many(node[idx], mat[idx, level])
            result[idx[exists & is_leaf]] = True
            node[idx] = child - rebase
            active[idx] = exists & ~is_leaf
        return result

    # ------------------------------------------------------------------ #
    # Range probes                                                       #
    # ------------------------------------------------------------------ #
    #
    # The walk decomposes [lo, hi] at the first divergent byte d:
    #   * levels < d: both bounds share the byte — a joint, fully tight
    #     descent (leaf edge => the stored prefix covers lo => True);
    #   * level d: any edge label strictly inside (lo[d], hi[d]) subtends a
    #     subtree wholly inside the interval, and every node has a leaf
    #     descendant => True; otherwise spawn a lo-tight and a hi-tight
    #     walker at the divergence node, each consuming its own bound's
    #     byte d (edge-follow only — labels above lo[d] are in range only
    #     below hi[d], which the interior check already covered);
    #   * a lo-tight walker at level l > d: any label > lo[l] => True (the
    #     subtree sits strictly between the bounds), the leaf edge lo[l]
    #     => True (its interval contains lo), else follow lo[l]; hi-tight
    #     mirrors with labels < hi[l].
    # Walkers that outlive the key width sit at an internal node whose path
    # equals the (exhausted) bound — its subtree intersects [lo, hi], so
    # they resolve True.

    def range_overlaps(self, lo: bytes, hi: bytes) -> bool:
        """Return whether any stored prefix interval intersects ``[lo, hi]``.

        ``lo`` and ``hi`` must have equal length and satisfy ``lo <= hi``.
        A one-row :meth:`may_intersect_matrix` call.
        """
        if len(lo) != len(hi):
            raise ValueError("range bounds must have the same byte length")
        if lo > hi:
            raise ValueError("empty query range")
        return bool(self.may_intersect_matrix(_row(lo), _row(hi))[0])

    def may_intersect_many(
        self, los: np.ndarray, his: np.ndarray, num_bytes: int
    ) -> np.ndarray:
        """Vectorise :meth:`range_overlaps` over parallel unsigned bound arrays.

        Level-synchronous: the joint descent and both spawned tight walkers
        advance one byte per iteration, so each level costs a handful of
        rank/searchsorted batch calls regardless of the query count.
        """
        los = np.asarray(los)
        his = np.asarray(his)
        if self.num_leaves == 0 or los.size == 0:
            return np.zeros(los.size, dtype=bool)
        return self.may_intersect_matrix(
            _byte_matrix(los, num_bytes), _byte_matrix(his, num_bytes)
        )

    def may_intersect_matrix(
        self, lo_m: np.ndarray, hi_m: np.ndarray
    ) -> np.ndarray:
        """Vectorise :meth:`range_overlaps` over parallel byte matrices.

        ``lo_m`` and ``hi_m`` are ``(n, L)`` big-endian byte matrices with
        ``lo <= hi`` rowwise (the :class:`~repro.workloads.ByteQueryBatch`
        layout); the same level-synchronous walk as the int64 entry point.
        """
        lo_m = lo_m.astype(np.int64, copy=False)  # uint8 would wrap in a+1
        hi_m = hi_m.astype(np.int64, copy=False)
        num_bytes = lo_m.shape[1]
        n = lo_m.shape[0]
        result = np.zeros(n, dtype=bool)
        if self.num_leaves == 0 or n == 0:
            return result
        jd_act = np.ones(n, dtype=bool)
        jd_node = np.zeros(n, dtype=np.int64)
        lo_act = np.zeros(n, dtype=bool)
        lo_node = np.zeros(n, dtype=np.int64)
        hi_act = np.zeros(n, dtype=bool)
        hi_node = np.zeros(n, dtype=np.int64)
        # Spawned-this-level walkers skip the open-side check (divergence
        # level: only the bound's own edge is followed).
        fresh = np.zeros(n, dtype=bool)
        for level in range(min(num_bytes, self.height)):
            if not (jd_act.any() or lo_act.any() or hi_act.any()):
                break
            half, rebase = self._part(level)
            idx = np.nonzero(jd_act)[0]
            if idx.size:
                a = lo_m[idx, level]
                b = hi_m[idx, level]
                same = a == b
                if same.any():
                    s = idx[same]
                    exists, is_leaf, child = half.probe_many(jd_node[s], a[same])
                    result[s[exists & is_leaf]] = True
                    jd_node[s] = child - rebase
                    jd_act[s] = exists & ~is_leaf
                diverged = ~same
                if diverged.any():
                    d = idx[diverged]
                    interior = half.any_label_between_many(
                        jd_node[d], a[diverged] + 1, b[diverged] - 1
                    )
                    result[d[interior]] = True
                    jd_act[d] = False
                    spawn = d[~interior]
                    lo_act[spawn] = True
                    lo_node[spawn] = jd_node[spawn]
                    hi_act[spawn] = True
                    hi_node[spawn] = jd_node[spawn]
                    fresh[spawn] = True
            for side_act, side_node, mat, low_side in (
                (lo_act, lo_node, lo_m, True),
                (hi_act, hi_node, hi_m, False),
            ):
                idx = np.nonzero(side_act & ~result)[0]
                side_act[result] = False
                if not idx.size:
                    continue
                c = mat[idx, level]
                if low_side:
                    open_side = half.any_label_between_many(
                        side_node[idx], c + 1, np.full(idx.size, _FANOUT - 1)
                    )
                else:
                    open_side = half.any_label_between_many(
                        side_node[idx], np.zeros(idx.size, dtype=np.int64), c - 1
                    )
                open_side &= ~fresh[idx]
                exists, is_leaf, child = half.probe_many(side_node[idx], c)
                result[idx[open_side | (exists & is_leaf)]] = True
                side_node[idx] = child - rebase
                side_act[idx] = exists & ~is_leaf & ~open_side
            fresh[:] = False
        # Walkers that outlive the bounds sit on overlapping subtrees.
        result |= jd_act | lo_act | hi_act
        return result

    # ------------------------------------------------------------------ #
    # Size accounting                                                    #
    # ------------------------------------------------------------------ #

    def size_in_bits(self) -> int:
        """Return the *measured* footprint: dense bitmaps + sparse arrays."""
        total = self._dense.size_in_bits() if self._dense is not None else 0
        if self._sparse is not None:
            total += self._sparse.size_in_bits()
        return total

    def size_breakdown(self) -> dict[str, int]:
        """Return measured bits per half; values sum to :meth:`size_in_bits`."""
        return {
            "dense": self._dense.size_in_bits() if self._dense is not None else 0,
            "sparse": self._sparse.size_in_bits() if self._sparse is not None else 0,
        }

    def modelled_size_in_bits(self) -> int:
        """Return the size model's per-level-minimum estimate (a lower bound)."""
        return fst_size_estimate(self.edges_per_level, self.internal_per_level)

    def __len__(self) -> int:
        """Return the number of stored prefixes (leaves)."""
        return self.num_leaves

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Return a debugging summary."""
        return (
            f"FastSuccinctTrie(leaves={self.num_leaves}, height={self.height}, "
            f"cutoff={self.cutoff}, bits={self.size_in_bits()})"
        )


class FSTPrefixIndex:
    """Proteus' trie layer realised as a succinct trie, for the size audit.

    Proteus' trie layer stores every distinct ``length``-bit key prefix.
    This index realises that set as a uniform-depth
    :class:`FastSuccinctTrie` over the prefixes' ``ceil(length / 8)``-byte
    big-endian renderings (padded at the top to whole bytes, which
    preserves order and prefix structure), and answers the batched queries of
    :class:`~repro.trie.sorted_index.SortedPrefixIndex` — prefix membership
    and interval overlap — so :mod:`repro.evaluation.size_check` can hold
    the two equal.  Prefixes and keys arrive in the key set's stored form
    and are rendered through :func:`~repro.workloads.batch.decode_ints`.

    ``size_in_bits`` is the trie's *measured* LOUDS-DS footprint.  Note the
    charged design-time cost in Algorithm 1 remains the bit-granular
    ``binary_trie_size_estimate`` — the paper's accounting — so the two
    will differ; this class is about realising the layer physically, not
    re-deriving the model.
    """

    __slots__ = ("length", "width", "num_bytes", "_fst")

    def __init__(self, prefixes: Iterable[int], length: int, width: int):
        """Index stored ``length``-bit prefixes of a ``width``-bit key space."""
        distinct = stored_prefix_array(prefixes, length, width)
        self.length = length
        self.width = width
        self.num_bytes = (length + 7) // 8
        self._fst = FastSuccinctTrie.from_uniform_prefixes(
            self._unsigned(distinct), self.num_bytes
        )

    @classmethod
    def from_keys(cls, keys: Iterable[int], length: int, width: int) -> "FSTPrefixIndex":
        """Index the ``length``-bit prefixes of stored ``width``-bit ``keys``."""
        return cls(np.asarray(keys, dtype=np.int64) >> np.int64(width - length), length, width)

    def _unsigned(self, prefixes):
        """Return an array of stored prefixes as unsigned ``length``-bit values."""
        return decode_ints(prefixes, self.width, self.length)

    def __len__(self) -> int:
        """Return the number of stored prefixes."""
        return len(self._fst)

    def contains_many(self, prefixes: np.ndarray) -> np.ndarray:
        """Return whether each ``length``-bit prefix (in stored form) is in the index."""
        return self._fst.may_contain_many(self._unsigned(prefixes), self.num_bytes)

    def overlaps_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Return whether a stored prefix interval meets each ``[lo, hi]``.

        ``los`` and ``his`` are parallel arrays of stored full keys with
        ``lo <= hi``.
        """
        shift = np.int64(self.width - self.length)
        return self._fst.may_intersect_many(
            self._unsigned(los >> shift), self._unsigned(his >> shift), self.num_bytes
        )

    def size_in_bits(self) -> int:
        """Return the measured LOUDS-DS footprint of the prefix trie."""
        return self._fst.size_in_bits()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Return a debugging summary."""
        return (
            f"FSTPrefixIndex(n={len(self)}, length={self.length}, "
            f"width={self.width}, bits={self.size_in_bits()})"
        )
