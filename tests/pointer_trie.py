"""The pointer byte trie: the reference the succinct trie is held to.

:class:`ByteTrie` stores a *prefix-free* set of byte strings (if one
inserted string is a prefix of another, only the shorter one is kept: it
covers a superset of the key space, so keeping it preserves the
no-false-negative guarantee of every filter built on top), one dict node
per byte.  :func:`fst_from_byte_trie` encodes a built trie into the
LOUDS-DS layout node by node, and :func:`reference_surf_trie` builds
SuRF-Base's pruned trie one key at a time.  Production code builds
:class:`~repro.trie.fst.FastSuccinctTrie` straight from sorted prefixes;
the parity tests hold that build and its probes equal to these.

Stored strings are interpreted as key-space *prefixes*: a stored prefix ``p``
covers the key interval ``[p·00…00, p·FF…FF]``.  The two queries every range
filter needs are therefore:

* :meth:`ByteTrie.match_prefix_of` — does a stored prefix cover a point key?
* :meth:`ByteTrie.range_overlaps` — does any stored prefix's interval
  intersect a query interval ``[lo, hi]``?
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.amq.bitarray import BitArray
from repro.trie.fst import FastSuccinctTrie
from repro.trie.louds_dense import LoudsDenseTrie
from repro.trie.louds_sparse import LoudsSparseTrie
from repro.trie.size_model import fst_prefix_cutoff
from scalar_reference import min_distinguishing_prefix_lengths

_FANOUT = 256


def key_to_bytes(key: int, width: int) -> bytes:
    """Render a ``width``-bit user key as big-endian bytes (MSB-padded to bytes).

    Padding the *top* of the integer to a whole number of bytes preserves
    both ordering and prefix structure, so byte-granular tries remain exact
    for widths that are not byte multiples.
    """
    return key.to_bytes((width + 7) // 8, "big")


class ByteTrieNode:
    """A single trie node: a sorted mapping from byte labels to children."""

    __slots__ = ("children", "is_leaf")

    def __init__(self):
        """Create a childless non-leaf node."""
        self.children: dict[int, "ByteTrieNode"] = {}
        self.is_leaf = False

    def sorted_labels(self) -> list[int]:
        """Return the child labels in ascending order."""
        return sorted(self.children)


class ByteTrie:
    """A byte trie over a prefix-free set of byte strings."""

    def __init__(self, prefixes: Iterable[bytes] = ()):
        """Build the trie by inserting ``prefixes`` (any order, pruned)."""
        self.root = ByteTrieNode()
        self.num_leaves = 0
        self.height = 0
        for prefix in sorted(set(bytes(p) for p in prefixes)):
            self._insert(prefix)

    def insert(self, prefix: bytes) -> None:
        """Insert ``prefix``, maintaining the prefix-free invariant.

        Insertion order does not matter: a prefix covered by an existing
        shorter one is dropped, and inserting a prefix *above* existing
        longer ones replaces them (their union is covered by the new leaf).
        """
        self._insert(bytes(prefix))

    def _insert(self, prefix: bytes) -> None:
        if not prefix:
            raise ValueError("cannot insert an empty prefix")
        node = self.root
        if node.is_leaf:
            # The empty-covering root already covers everything.
            return
        for depth, byte in enumerate(prefix):
            if node.is_leaf:
                # A shorter stored prefix already covers this one.
                return
            child = node.children.get(byte)
            if child is None:
                child = ByteTrieNode()
                node.children[byte] = child
            node = child
        if node.is_leaf:
            # Exact duplicate: already stored and counted.
            return
        node.is_leaf = True
        # A leaf must not retain children (prefix-free invariant).  With
        # unsorted input, longer strings may already live below this node;
        # they are now covered by the new leaf and must be pruned *and*
        # un-counted, otherwise num_leaves/height silently go stale.
        removed, pruned_depth = self._prune_subtree(node)
        self.num_leaves += 1 - removed
        if removed and len(prefix) + pruned_depth >= self.height:
            # The pruned subtree may have held the deepest leaf; rescan.
            # Shallower prunes cannot change the height, so bulk covering
            # inserts stay near-linear.
            self.height = max((len(leaf) for leaf in self.leaves()), default=0)
        else:
            self.height = max(self.height, len(prefix))

    @staticmethod
    def _prune_subtree(node: ByteTrieNode) -> tuple[int, int]:
        """Detach ``node``'s descendants.

        Returns ``(leaves_removed, max_depth_removed)`` with the depth
        relative to ``node``.
        """
        removed = 0
        max_depth = 0
        stack = [(child, 1) for child in node.children.values()]
        node.children.clear()
        while stack:
            child, depth = stack.pop()
            max_depth = max(max_depth, depth)
            if child.is_leaf:
                removed += 1
            stack.extend((grandchild, depth + 1) for grandchild in child.children.values())
        return removed, max_depth

    def __len__(self) -> int:
        """Return the number of stored prefixes (leaves)."""
        return self.num_leaves

    def leaves(self) -> Iterator[bytes]:
        """Yield the stored prefixes in lexicographic order."""

        def walk(node: ByteTrieNode, path: bytearray) -> Iterator[bytes]:
            """Yield the leaves below ``node`` in label order."""
            if node.is_leaf:
                yield bytes(path)
                return
            for label in node.sorted_labels():
                path.append(label)
                yield from walk(node.children[label], path)
                path.pop()

        yield from walk(self.root, bytearray())

    def match_prefix_of(self, key: bytes) -> Optional[bytes]:
        """Return the stored prefix covering ``key``, or None.

        A stored prefix ``p`` covers ``key`` when ``p`` is a prefix of
        ``key`` (keys shorter than every stored prefix are not covered).
        """
        node = self.root
        if node.is_leaf:
            return b""
        matched = bytearray()
        for byte in key:
            child = node.children.get(byte)
            if child is None:
                return None
            matched.append(byte)
            if child.is_leaf:
                return bytes(matched)
            node = child
        return None

    def range_overlaps(self, lo: bytes, hi: bytes) -> bool:
        """Return whether any stored prefix interval intersects ``[lo, hi]``.

        ``lo`` and ``hi`` must have equal length (the key-space width in
        bytes) and satisfy ``lo <= hi``.
        """
        if len(lo) != len(hi):
            raise ValueError("range bounds must have the same byte length")
        if lo > hi:
            raise ValueError("empty query range")
        if self.root.is_leaf:
            return True
        return self._overlaps(self.root, 0, lo, hi, True, True)

    def _overlaps(
        self,
        node: ByteTrieNode,
        depth: int,
        lo: bytes,
        hi: bytes,
        tight_lo: bool,
        tight_hi: bool,
    ) -> bool:
        if node.is_leaf:
            return True
        if depth >= len(lo):
            # The stored prefixes are longer than the key width; a node at
            # this depth covers at most a single key value, which is inside
            # the query interval by construction of the traversal.
            return True
        lo_byte = lo[depth] if tight_lo else 0x00
        hi_byte = hi[depth] if tight_hi else 0xFF
        for label in node.sorted_labels():
            if label < lo_byte or label > hi_byte:
                continue
            child = node.children[label]
            if self._overlaps(
                child,
                depth + 1,
                lo,
                hi,
                tight_lo and label == lo_byte,
                tight_hi and label == hi_byte,
            ):
                return True
        return False

    def level_slices(self) -> list[list[tuple[ByteTrieNode, bytes]]]:
        """Return nodes grouped by level (breadth-first), with their paths.

        Level 0 contains the root.  Used by the succinct encoders, which lay
        out nodes in level order.
        """
        levels: list[list[tuple[ByteTrieNode, bytes]]] = [[(self.root, b"")]]
        while True:
            next_level: list[tuple[ByteTrieNode, bytes]] = []
            for node, path in levels[-1]:
                for label in node.sorted_labels():
                    next_level.append((node.children[label], path + bytes([label])))
            if not next_level:
                break
            levels.append(next_level)
        return levels

    def edges_per_level(self) -> list[int]:
        """Return the number of edges entering each level (level 1 onwards)."""
        return self.level_counts()[0]

    def level_counts(self) -> tuple[list[int], list[int]]:
        """Return ``(edges_per_level, internal_nodes_per_level)`` in one walk.

        Unlike :meth:`level_slices` this never materialises node paths, so
        size estimation stays cheap on large tries.
        """
        edges: list[int] = []
        internal: list[int] = []
        level = [self.root]
        while level:
            internal.append(sum(1 for node in level if not node.is_leaf))
            level = [
                child for node in level for child in node.children.values()
            ]
            if level:
                edges.append(len(level))
        return edges, internal


def fst_from_byte_trie(trie: ByteTrie, cutoff: int | None = None) -> FastSuccinctTrie:
    """Encode a built :class:`ByteTrie` node by node, in level order.

    ``cutoff`` (number of dense-encoded top levels) defaults to the
    footprint-minimising prefix cutoff; pass it explicitly to pin a
    layout (0 = all sparse, ``trie.height`` = all dense) in tests.
    """
    edges, internal = trie.level_counts()
    if cutoff is None:
        cutoff, _ = fst_prefix_cutoff(edges, internal)
    if not 0 <= cutoff <= len(edges):
        raise ValueError(f"dense cutoff {cutoff} outside [0, {len(edges)}]")
    levels = trie.level_slices()
    # Dense half: internal nodes of levels [0, cutoff), level order.
    label_positions: list[int] = []
    child_positions: list[int] = []
    node_id = 0
    for level in levels[:cutoff]:
        for node, _ in level:
            if node.is_leaf:
                continue
            base = node_id * _FANOUT
            for label in node.sorted_labels():
                label_positions.append(base + label)
                if not node.children[label].is_leaf:
                    child_positions.append(base + label)
            node_id += 1
    dense = (
        LoudsDenseTrie.from_positions(label_positions, child_positions, node_id)
        if cutoff > 0
        else None
    )
    # Sparse half: internal nodes of levels [cutoff, height), level order.
    labels: list[int] = []
    has_child: list[int] = []
    louds: list[int] = []
    num_roots = 0
    for depth, level in enumerate(levels[cutoff:]):
        for node, _ in level:
            if node.is_leaf or not node.children:
                continue
            if depth == 0:
                num_roots += 1
            louds.append(len(labels))
            for label in node.sorted_labels():
                if not node.children[label].is_leaf:
                    has_child.append(len(labels))
                labels.append(label)
    sparse = None
    if labels:
        child_bits = BitArray(len(labels))
        child_bits.set_many(has_child)
        louds_bits = BitArray(len(labels))
        louds_bits.set_many(louds)
        sparse = LoudsSparseTrie(
            np.array(labels, dtype=np.uint8), child_bits, louds_bits, num_roots
        )
    return FastSuccinctTrie(
        dense, sparse, cutoff, trie.height, trie.num_leaves, edges, internal
    )


def fst_payload(fst: FastSuccinctTrie) -> tuple:
    """Everything a succinct trie stores, as comparable values."""
    return (
        fst.cutoff,
        fst.height,
        fst.num_leaves,
        fst.edges_per_level,
        None if fst._dense is None else fst._dense.to_bytes(),
        None if fst._sparse is None else (fst._sparse.to_bytes(), fst._sparse.num_roots),
    )


def reference_surf_trie(keys, width, max_depth=None) -> ByteTrie:
    """SuRF-Base's pruned trie, one key at a time."""
    num_bytes = (width + 7) // 8
    max_depth = max_depth or num_bytes
    sorted_keys = sorted(set(keys))
    # Keys are MSB-padded to whole bytes, so a prefix of `bits` key bits
    # needs ceil((pad + bits) / 8) bytes.
    pad_bits = 8 * num_bytes - width
    prefixes = set()
    for key, bits in zip(sorted_keys, min_distinguishing_prefix_lengths(sorted_keys, width)):
        depth = min(max_depth, (pad_bits + bits + 7) // 8)
        prefixes.add(key_to_bytes(key, width)[: max(1, depth)])
    return ByteTrie(prefixes)
