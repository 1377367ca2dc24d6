"""The numpy reference backend: always available, defines kernel semantics.

Every other backend must return bit-identical results to these
implementations (pinned by ``tests/test_kernels.py``); they are the exact
vectorised code the hot paths ran before the kernel layer existed, moved
here verbatim so the dispatch indirection never changes an answer.
"""

from __future__ import annotations

import numpy as np

from repro.amq.hashing import mix64_many

name = "numpy"

_BIT_MASKS = np.array([1 << (7 - i) for i in range(8)], dtype=np.uint8)
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


def bloom_positions(values: np.ndarray, s1: int, s2: int, num_bits: int, k: int) -> np.ndarray:
    """Return the ``(k, n)`` enhanced-double-hashing probe-position matrix.

    ``s1``/``s2`` are the pre-mixed seeds (``mix64(seed)`` and
    ``mix64(seed ^ GOLDEN)``); all intermediates stay below 2**64 because
    ``x, y < num_bits``, so uint64 wrap-around matches the scalar path.
    """
    v = np.asarray(values).astype(np.uint64)
    h1 = mix64_many(v ^ np.uint64(s1))
    h2 = mix64_many(v ^ np.uint64(s2)) | np.uint64(1)
    m = np.uint64(num_bits)
    x, y = h1 % m, h2 % m
    out = np.empty((k, v.shape[0]), dtype=np.uint64)
    out[0] = x
    for i in range(1, k):
        x = (x + y) % m
        y = (y + np.uint64(i)) % m
        out[i] = x
    return out


def bloom_add(buffer: np.ndarray, num_bits: int, values: np.ndarray,
              s1: int, s2: int, k: int) -> None:
    """Set every probe position of every value in the packed bit buffer."""
    positions = bloom_positions(values, s1, s2, num_bits, k)
    idx = positions.ravel().astype(np.int64)
    np.bitwise_or.at(buffer, idx >> 3, _BIT_MASKS[idx & 7])


def bloom_contains(buffer: np.ndarray, num_bits: int, values: np.ndarray,
                   s1: int, s2: int, k: int) -> np.ndarray:
    """Return one boolean per value: all k probe positions set."""
    positions = bloom_positions(values, s1, s2, num_bits, k)
    idx = positions.ravel().astype(np.int64)
    probed = (buffer[idx >> 3] & _BIT_MASKS[idx & 7]) != 0
    return probed.reshape(positions.shape).all(axis=0)


def bloom_contains_hashed(buffer: np.ndarray, byte_offsets: np.ndarray,
                          num_bits: np.ndarray, num_hashes: np.ndarray,
                          h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Probe already-hashed items, each against its own filter in ``buffer``.

    ``buffer`` concatenates several Bloom bit arrays; item ``j`` belongs
    to the one starting at byte ``byte_offsets[j]``, of ``num_bits[j]``
    bits and ``num_hashes[j]`` probes.  Its probe positions follow the
    :func:`bloom_positions` recurrence from ``x = h1[j] % m`` and
    ``y = h2[j] % m``; the answer is True iff all of them are set.
    """
    m = num_bits.astype(np.uint64)
    x, y = h1 % m, h2 % m
    base = byte_offsets.astype(np.int64) << 3
    out = np.ones(h1.shape[0], dtype=bool)
    for i in range(int(num_hashes.max(initial=0))):
        if i:
            x = (x + y) % m
            y = (y + np.uint64(i)) % m
        idx = base + x.astype(np.int64)
        probed = (buffer[idx >> 3] & _BIT_MASKS[idx & 7]) != 0
        out &= probed | (num_hashes <= i)
    return out


def bitvector_get_rank1(buffer: np.ndarray, cumulative: np.ndarray,
                        num_bits: int, positions: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Fused LOUDS step: ``(bit at pos, rank1(pos + 1))`` per position.

    ``cumulative[b]`` is the popcount of bytes ``[0, b)``; positions must
    already be validated into ``[0, num_bits)`` by the caller.
    """
    idx = positions
    bits = (buffer[idx >> 3] & _BIT_MASKS[idx & 7]) != 0
    q = idx + 1
    full = q >> 3
    part = q & 7
    counts = cumulative[full]
    if buffer.size:
        safe = np.minimum(full, buffer.size - 1)
        masks = ((0xFF00 >> part) & 0xFF).astype(np.uint8)
        counts = counts + _POPCOUNT_TABLE[buffer[safe] & masks]
    return bits, counts.astype(np.int64)


def merge_runs(keys: np.ndarray, tombstones: np.ndarray, priorities: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Newest-wins k-way merge of concatenated sorted runs.

    ``keys``/``tombstones``/``priorities`` are the parallel concatenation
    of every input run's entries; ``priorities`` is the run's recency rank
    (0 = newest), constant within a run.  One ``lexsort`` orders entries by
    key with the newest first inside each duplicate group, then a shifted
    comparison keeps exactly the first (newest) entry per key.  Returns the
    sorted distinct ``(keys, tombstones)`` of the surviving entries —
    shadowed duplicates dropped, each key carrying its newest entry's
    tombstone flag.
    """
    if keys.size == 0:
        return keys[:0].copy(), tombstones[:0].copy()
    order = np.lexsort((priorities, keys))
    sorted_keys = keys[order]
    keep = np.empty(sorted_keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
    return sorted_keys[keep], tombstones[order][keep]


def cpfpr_row(los: np.ndarray, his: np.ndarray, lcps: np.ndarray,
              lo_lcps: np.ndarray, hi_lcps: np.ndarray, width: int,
              max_probes: int, trie_depth: int, lens: np.ndarray,
              num_bits: int, prefix_counts: np.ndarray) -> np.ndarray:
    """Expected FPRs of the Proteus designs ``(trie_depth, l2, num_bits)``.

    One value per ``l2`` in ``lens``, over a CPFPR model's empty sample
    queries in the int64 stored form: bounds ``los``/``his``, ``lcps`` =
    ``L(q)`` and its halves ``lo_lcps``/``hi_lcps`` (the LCPs of ``lo``
    with its predecessor key and of ``hi`` with its successor).  The trie
    gate admits ``L(q) >= trie_depth``.  An admitted query is a certain
    false positive at ``l2`` when ``L(q) >= l2`` or when it spans more
    than ``max_probes`` slots; otherwise it probes its ``l2``-slots (only
    those of its stored boundary blocks when it spans several
    ``trie_depth``-blocks).  ``prefix_counts[l]`` is ``|K_l|``, sizing
    each Bloom layer's probe FPR.  :func:`cpfpr_row_fprs` finishes the
    pass.
    """
    # Both modules import this package (through repro.kernels) at load time.
    from repro.amq.bloom import bloom_fpr
    from repro.workloads.batch import slot_bounds

    l1 = trie_depth
    admitted = np.flatnonzero(lcps >= l1)  # the trie gate
    if not admitted.size:
        return np.zeros(lens.size)
    l2 = lens[:, None]
    uncertain = lcps[admitted] < l2
    lo, hi = los[admitted], his[admitted]
    plo, phi, clamped = slot_bounds(lo, hi, width, l2, max_probes)
    # phi - plo + 1 wraps only for clamped full-space queries, which
    # stay inactive.
    probes = phi - plo + 1
    if l1:
        # A query spanning two or more l1-blocks probes the slots of
        # whichever boundary block is stored, and nothing in between.
        shift1 = width - l1
        split = np.flatnonzero((lo >> shift1) != (hi >> shift1))
        if split.size:
            low = ~(np.int64(-1) << (l2 - l1))  # the low l2 - l1 bits
            lo_stored = lo_lcps[admitted[split]] >= l1
            hi_stored = hi_lcps[admitted[split]] >= l1
            probes[:, split] = lo_stored * (low + 1 - (plo[:, split] & low))
            probes[:, split] += hi_stored * ((phi[:, split] & low) + 1)
    keep = np.array([1.0 - bloom_fpr(num_bits, count) for count in prefix_counts[lens].tolist()])
    return cpfpr_row_fprs(keep, probes, uncertain & ~clamped, lcps.size)


def bind_cpfpr_row(los, his, lcps, lo_lcps, hi_lcps, width, max_probes, prefix_counts):
    """:func:`cpfpr_row` over one model's queries, as a ``(trie_depth, lens, num_bits)`` call."""

    def row(trie_depth, lens, num_bits):
        return cpfpr_row(
            los, his, lcps, lo_lcps, hi_lcps, width, max_probes, trie_depth,
            np.asarray(lens, dtype=np.int64), num_bits, prefix_counts,
        )

    return row


def cpfpr_byte_row(lo_rows: np.ndarray, hi_rows: np.ndarray, lcps: np.ndarray,
                   max_probes: int, trie_depth: int, lens: np.ndarray,
                   num_bits: int, prefix_counts: np.ndarray,
                   slots: dict | None = None) -> np.ndarray:
    """Expected FPRs of the Proteus designs ``(trie_depth, l2, num_bits)``
    over a byte-keyed CPFPR model.

    One value per ``l2`` in ``lens``, over the model's empty sample
    queries: bound rows ``lo_rows``/``hi_rows`` (``uint8``, zero-padded to
    the ``8 * columns``-bit width) and ``lcps`` = ``L(q)``.  The trie gate
    admits ``L(q) >= trie_depth``.  An admitted query is a certain false
    positive at ``l2`` when ``L(q) >= l2`` or when
    :func:`repro.keys.bytestr.byte_slot_bounds` clamps it; otherwise it
    probes every ``l2``-slot of its interval, because the byte filter has
    no per-``l1``-block pruning.  ``slots`` optionally memoises each
    length's slot counts, so a binding reads them once for every trie
    depth.  Lengths outside ``(trie_depth, width]`` raise ``ValueError``.
    """
    # Both modules import this package (through repro.kernels) at load time.
    from repro.amq.bloom import bloom_fpr
    from repro.keys.bytestr import byte_slot_bounds

    width = 8 * lo_rows.shape[1]
    if lens.size and not (0 <= trie_depth < lens.min() and lens.max() <= width):
        raise ValueError(f"prefix lengths {lens.tolist()} must lie in ({trie_depth}, {width}]")
    l1 = trie_depth
    admitted = np.flatnonzero(lcps >= l1)  # the trie gate
    if not admitted.size or not lens.size:
        return np.zeros(lens.size)
    slots = {} if slots is None else slots
    for length in lens.tolist():
        if length not in slots:  # per query: (number of slots, clamped)
            _, _, span, clamp = byte_slot_bounds(lo_rows, hi_rows, length, max_probes)
            slots[length] = (span + 1, clamp)
    uncertain = lcps[admitted] < lens[:, None]
    # The byte filter probes every slot once its gate passes.
    rows = [slots[length] for length in lens.tolist()]
    probes = np.stack([count[admitted] for count, _ in rows])
    clamped = np.stack([clamp[admitted] for _, clamp in rows])
    keep = np.array([1.0 - bloom_fpr(num_bits, count) for count in prefix_counts[lens].tolist()])
    return cpfpr_row_fprs(keep, probes, uncertain & ~clamped, lcps.size)


def bind_cpfpr_byte_row(lo_rows, hi_rows, lcps, max_probes, prefix_counts):
    """:func:`cpfpr_byte_row` over one model's queries, its slot counts memoised."""
    slots: dict = {}

    def row(trie_depth, lens, num_bits):
        return cpfpr_byte_row(
            lo_rows, hi_rows, lcps, max_probes, trie_depth,
            np.asarray(lens, dtype=np.int64), num_bits, prefix_counts, slots,
        )

    return row


def cpfpr_row_fprs(keep: np.ndarray, probes: np.ndarray, active: np.ndarray,
                   num_empty: int) -> np.ndarray:
    """Finish a CPFPR row pass from its ``(l2 x query)`` probe counts.

    ``active`` marks, per row, the admitted queries the Bloom layer may
    reject: each counts ``1 - keep[row] ** k`` for its ``k`` probes,
    gathered from one table, and every other admitted query counts 1.
    Each row's values are summed with their own 1-D ``.sum()`` in query
    order (numpy's pairwise summation rounds by length and order), and the
    total is divided by ``num_empty``.  :func:`cpfpr_row` and
    :func:`cpfpr_byte_row` share this step.
    """
    admitted = active.shape[1]
    counts = active.sum(axis=1)
    probes = probes[active]
    size = int(probes.max(initial=0)) + 1  # at most max_probes + 1
    table = 1.0 - keep[:, None] ** np.arange(size)
    probes += np.repeat(np.arange(0, keep.size * size, size), counts)
    values = table.ravel().take(probes)
    ends = np.cumsum(counts).tolist()
    sums = [values[start:end].sum() for start, end in zip([0] + ends, ends)]
    return (admitted - counts + np.array(sums)) / num_empty


def trie_levels(mat: np.ndarray, lengths: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-level edge arrays of a sorted, distinct, prefix-free string set.

    ``mat`` is the ``(n, H)`` zero-padded byte matrix of the strings (rows
    in lexicographic order), ``lengths`` the per-row byte lengths.  Returns
    ``(labels, parents, leaves, edge_counts, group_counts)`` — level-major
    flat edge arrays plus per-level edge and internal-node counts — exactly
    the quantities the LOUDS-Dense/Sparse encoders consume.  One vector
    pass per level: group boundaries come from adjacent-row comparisons,
    which sorted order makes sufficient.
    """
    n, height = mat.shape
    label_parts: list[np.ndarray] = []
    parent_parts: list[np.ndarray] = []
    leaf_parts: list[np.ndarray] = []
    edge_counts = np.zeros(height, dtype=np.int64)
    group_counts = np.zeros(height, dtype=np.int64)
    idx = np.nonzero(lengths > 0)[0]
    grp = np.zeros(idx.size, dtype=np.int64)
    for level in range(height):
        if idx.size == 0:
            break
        byte = mat[idx, level]
        new_grp = np.empty(idx.size, dtype=bool)
        new_grp[0] = True
        np.not_equal(grp[1:], grp[:-1], out=new_grp[1:])
        boundary = new_grp.copy()
        boundary[1:] |= byte[1:] != byte[:-1]
        edge_id = np.cumsum(boundary) - 1
        group_id = np.cumsum(new_grp) - 1
        first = np.nonzero(boundary)[0]
        label_parts.append(byte[first].astype(np.uint8))
        parent_parts.append(group_id[first])
        leaf_parts.append(lengths[idx[first]] == level + 1)
        edge_counts[level] = first.size
        group_counts[level] = int(group_id[-1]) + 1
        keep = lengths[idx] > level + 1
        idx = idx[keep]
        grp = edge_id[keep]
    if label_parts:
        labels = np.concatenate(label_parts)
        parents = np.concatenate(parent_parts)
        leaves = np.concatenate(leaf_parts)
    else:
        labels = np.zeros(0, dtype=np.uint8)
        parents = np.zeros(0, dtype=np.int64)
        leaves = np.zeros(0, dtype=bool)
    return labels, parents, leaves, edge_counts, group_counts
