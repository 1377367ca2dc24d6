"""Succinct-trie size estimators: the ``trieMem(l)`` term of Algorithm 1.

Algorithm 1 needs the memory footprint of the trie layer for every candidate
depth *before* building anything, so the cost model works from the per-level
node/edge counts alone (which :func:`repro.keys.lcp.unique_prefix_counts_array`
derives in one pass over the sorted key set).

Two families of estimates are provided:

* :func:`fst_size_estimate` — the SuRF-style Fast Succinct Trie over *byte*
  labels.  The top levels use LOUDS-Dense (two 256-bit bitmaps per node) and
  the remaining levels LOUDS-Sparse (8-bit label + has-child bit + LOUDS bit
  per edge).  The dense/sparse cutoff is chosen greedily per level: a level
  is encoded dense only when that is no larger than its sparse encoding,
  which mirrors SuRF's size-ratio heuristic.
* :func:`binary_trie_size_estimate` — the *bit*-granular uniform-depth trie
  used by Proteus' trie layer, where every node stores a 2-bit child bitmap.
  This is the ``trieMem(l)`` that Algorithm 1 charges against the bit budget.

The structures that charge these estimates — SuRF's succinct trie
(:class:`~repro.trie.fst.FastSuccinctTrie`) and Proteus' sorted prefix
array — do not store exactly these bits; the estimates define the *size
accounting convention*, exactly as the paper's model does, and
:mod:`repro.evaluation.size_check` bounds the measured succinct bits
against them.
"""

from __future__ import annotations

from typing import Sequence

#: LOUDS-Sparse cost per edge: 8-bit label + has-child bit + LOUDS bit.
SPARSE_BITS_PER_EDGE = 10

#: LOUDS-Dense cost per node: a 256-bit label bitmap + a 256-bit has-child bitmap.
DENSE_BITS_PER_NODE = 512


def louds_sparse_level_bits(num_edges: int) -> int:
    """Return the LOUDS-Sparse footprint of a level with ``num_edges`` edges."""
    if num_edges < 0:
        raise ValueError("edge count must be non-negative")
    return SPARSE_BITS_PER_EDGE * num_edges


def louds_dense_level_bits(num_nodes: int) -> int:
    """Return the LOUDS-Dense footprint of a level with ``num_nodes`` nodes."""
    if num_nodes < 0:
        raise ValueError("node count must be non-negative")
    return DENSE_BITS_PER_NODE * num_nodes


def fst_size_estimate(
    edges_per_level: Sequence[int], nodes_per_level: Sequence[int] | None = None
) -> int:
    """Estimate the LOUDS-DS footprint of a byte trie in bits.

    ``edges_per_level[i]`` is the number of edges entering level ``i + 1``
    (the layout of :attr:`repro.trie.fst.FastSuccinctTrie.edges_per_level`).
    ``nodes_per_level[i]``, when given, is the number of nodes *emitting*
    those edges (i.e. internal nodes at level ``i``); absent that, each
    level's node count is approximated by the edge count entering it, with
    a single root at level 0.
    """
    total = 0
    for index, edges in enumerate(edges_per_level):
        if nodes_per_level is not None:
            nodes = nodes_per_level[index]
        else:
            nodes = 1 if index == 0 else edges_per_level[index - 1]
        total += min(louds_dense_level_bits(nodes), louds_sparse_level_bits(edges))
    return total


def fst_prefix_cutoff(
    edges_per_level: Sequence[int], nodes_per_level: Sequence[int]
) -> tuple[int, int]:
    """Choose the dense/sparse cutoff for a *physical* Fast Succinct Trie.

    Unlike :func:`fst_size_estimate` — which takes the per-level minimum
    independently and is therefore a lower bound — a realisable LOUDS-DS
    layout must encode a contiguous *prefix* of levels dense and the rest
    sparse (SuRF's D-/S- split).  This helper returns ``(cutoff,
    total_bits)`` where ``cutoff`` is the number of top levels to encode
    dense (0 means all-sparse) minimising the total footprint over all
    prefix cutoffs, and ``total_bits`` is that minimal footprint.

    ``fst_size_estimate(edges, nodes) <= total_bits`` always, with equality
    exactly when the per-level winners already form a dense prefix — which
    they do whenever node counts grow with depth, the common case.

    >>> fst_prefix_cutoff([200, 120], [1, 100])
    (1, 1712)
    >>> fst_prefix_cutoff([], [1])
    (0, 0)
    """
    num_levels = len(edges_per_level)
    sparse_bits = [louds_sparse_level_bits(e) for e in edges_per_level]
    dense_bits = [louds_dense_level_bits(nodes_per_level[i]) for i in range(num_levels)]
    best_cutoff, best_total = 0, sum(sparse_bits)
    total = best_total
    for cutoff in range(1, num_levels + 1):
        total += dense_bits[cutoff - 1] - sparse_bits[cutoff - 1]
        if total < best_total:
            best_cutoff, best_total = cutoff, total
    return best_cutoff, best_total


def binary_trie_size_estimate(prefix_counts: Sequence[int], depth: int) -> int:
    """Return ``trieMem(depth)`` for the bit-granular uniform-depth trie.

    ``prefix_counts[l]`` must be ``|K_l|``, the number of distinct ``l``-bit
    key prefixes (see :func:`repro.keys.lcp.unique_prefix_counts_array`).  Every
    internal node at depths ``0 .. depth - 1`` stores a 2-bit child bitmap;
    the leaves at ``depth`` need no storage because the depth is uniform.
    ``trieMem(0)`` is 0 — a depth-0 trie accepts everything and stores
    nothing.
    """
    if depth < 0:
        raise ValueError("trie depth must be non-negative")
    if depth >= len(prefix_counts):
        raise ValueError(
            f"depth {depth} exceeds the modelled key width {len(prefix_counts) - 1}"
        )
    return 2 * sum(prefix_counts[level] for level in range(depth))
