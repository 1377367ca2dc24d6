"""The Contextual Prefix FPR (CPFPR) model — Sections 3-4 of the paper.

The model predicts the expected false positive rate of a candidate filter
design *before building it*, from two inputs it derives once:

* the key set, reduced to its prefix-count profile ``|K_l|`` (distinct
  ``l``-bit prefixes, one sorted pass —
  :func:`repro.keys.lcp.unique_prefix_counts_array`);
* a sample of the query workload, reduced per *empty* query ``q = [lo, hi]``
  to the triple ``(lo, hi, L(q))`` where ``L(q) = lcp(q, K)`` is the longest
  prefix the query shares with any key.

The central observation ("contextual" in CPFPR) is that ``L(q)`` makes a
layer's behaviour on an empty query deterministic or probabilistic:

* a trie of depth ``l1`` accepts ``q`` **iff** ``L(q) >= l1`` — equivalently
  iff a stored ``l1``-prefix falls inside ``Q_{l1}(q)``;
* a Bloom filter over ``l2``-prefixes is *certainly* positive when
  ``L(q) >= l2`` (a truly stored prefix is probed), and otherwise each of
  the ``n`` probed absent prefixes collides independently with probability
  ``p = bloom_fpr(m, |K_{l2}|)``, giving ``1 - (1 - p)^n``.

The filters clamp range probes at ``max_probes`` (returning a conservative
positive beyond it); the model mirrors the clamp exactly, which is what lets
the model-vs-empirical agreement test hold to within small constants.

FPR here is defined over the *empty* sample queries only — non-empty queries
are true positives for every zero-false-negative filter and carry no design
signal.

Execution model
    For integer key spaces (up to 64 bits, in the stored form of
    :mod:`repro.workloads.batch`) the per-query ``(lo, hi, L)``
    triples live in numpy ``int64`` arrays, and Algorithm 1 evaluates one
    trie depth ``l1`` at a time: every ``l2`` candidate of that depth in
    one ``(l2 x query)`` pass (:meth:`CPFPRModel.proteus_fpr_row`).  The
    trie gate needs no search.  An empty query contains no key, so no
    stored ``l1``-prefix lies strictly inside its ``l1``-slot interval
    ``[blo, bhi]`` — its keys would fall inside the query.  Only the two
    boundary blocks can be stored: ``blo`` iff ``a >= l1`` and ``bhi``
    iff ``b >= l1``, where ``a`` is the LCP of ``lo`` with its predecessor
    key and ``b`` that of ``hi`` with its successor (``L(q) = max(a,
    b)``).  So the gate is ``L(q) >= l1``, and a gated query probes the
    ``l2``-slots of its stored boundary blocks (all of its slots when
    ``blo == bhi``).  The model derives ``a`` and ``b`` once, from the
    same two searches that give ``L``.

    Gated queries never probe more than ``max_probes`` slots, so each pass
    gathers ``1 - (1 - p)^k`` from one table per ``l2`` instead of raising
    a power per query.  Each candidate's probabilities are then summed
    with its own 1-D ``.sum()`` over its active queries in query order:
    numpy's pairwise summation depends on the length and order it is
    given, and a 2-D ``sum(axis=1)`` rounds differently.  This keeps every
    prediction, and so every design Algorithm 1 picks, equal bit for bit
    to the per-candidate evaluation the test-suite keeps as its oracle.

    The pass is a row kernel, one call per trie depth:
    :func:`repro.kernels.cpfpr_row` for integer keys and
    :func:`repro.kernels.cpfpr_byte_row` for byte-string key spaces and
    integers wider than 64 bits, whose gated queries probe every slot of
    their interval.  The numpy backend runs each as above, and the
    compiled backend restates both in C with numpy's pairwise summation
    order and numpy's ``(1 - p)^k`` table, so its values are the same bit
    for bit.  The model binds its empty queries to its kernel once
    (:func:`repro.kernels.bind_cpfpr_row` /
    :func:`~repro.kernels.bind_cpfpr_byte_row`), so a depth's call passes
    only the row.  The test-suite keeps the per-query scalar evaluators as
    the reference both passes are held equal to.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.amq.bloom import bloom_fpr
from repro.filters.prefix_bloom import DEFAULT_MAX_PROBES
from repro.keys.bytestr import byte_slot_bounds, lcp_bits_rows
from repro.keys.lcp import query_neighbour_lcps_many
from repro.workloads.batch import (
    EncodedKeySet,
    QueryBatch,
    coerce_keys,
    decode_ints,
    slot_bounds,
    stored_query_batch,
)

__all__ = ["CPFPRModel", "DEFAULT_MAX_PROBES"]


class CPFPRModel:
    """Expected-FPR evaluator for trie/Bloom prefix-filter designs.

    ``keys`` may be any iterable of raw keys or a
    :class:`~repro.workloads.keyset.KeySet`; ``queries`` any iterable
    of inclusive ``(lo, hi)`` pairs or a
    :class:`~repro.workloads.batch.QueryBatch`, which
    :func:`~repro.workloads.batch.stored_query_batch` puts in the key
    set's representation.  ``metrics`` optionally names
    a :class:`~repro.obs.metrics.MetricsRegistry` that counts model
    constructions and per-candidate design evaluations (one ``is not
    None`` check per evaluation when disabled).
    """

    def __init__(
        self,
        keys: Iterable[int] | EncodedKeySet,
        width: int,
        queries: Iterable[tuple[int, int]] | QueryBatch,
        max_probes: int = DEFAULT_MAX_PROBES,
        metrics=None,
    ):
        if width <= 0:
            raise ValueError("key width must be positive")
        if max_probes < 1:
            raise ValueError("max_probes must be at least 1")
        self.metrics = metrics
        setup_start = perf_counter() if metrics is not None else 0.0
        self.width = width
        self.max_probes = max_probes
        keyset = coerce_keys(keys, width)
        self._keyset = keyset
        self.is_bytes = keyset.is_bytes
        #: Bit granularity Algorithm 1 should sweep layer depths at: byte
        #: keys index and mask at byte boundaries, so sub-byte depths add
        #: cost without adding resolution; the design loops read this.
        self.design_step = 8 if keyset.is_bytes else 1
        #: ``prefix_counts[l] == |K_l|``, the number of distinct l-bit prefixes.
        self.prefix_counts = keyset.prefix_counts()
        self._prefix_count_array = np.array(self.prefix_counts, dtype=np.int64)
        batch = stored_query_batch(queries, width, keyset.is_bytes)
        self.num_queries = len(batch)
        self._empty_list: list[tuple[int, int, int]] | None = None
        if self.is_bytes:
            self._setup_bytes(keyset, batch)
        else:
            lo_lcps, hi_lcps = query_neighbour_lcps_many(keyset.keys, batch.los, batch.his, width)
            lcps = np.maximum(lo_lcps, hi_lcps)
            empty = lcps < width
            self._empty_lo = batch.los[empty]
            self._empty_hi = batch.his[empty]
            self._empty_lcp = lcps[empty]
            # The two halves of L(q) decide which boundary l1-blocks of a
            # query hold a stored prefix (see the module docstring).
            self._empty_lo_lcp = lo_lcps[empty]
            self._empty_hi_lcp = hi_lcps[empty]
            # Algorithm 1's row pass over these queries, one call per depth.
            self._rows = kernels.bind_cpfpr_row(
                self._empty_lo, self._empty_hi, self._empty_lcp, self._empty_lo_lcp,
                self._empty_hi_lcp, width, max_probes, self._prefix_count_array,
            )
        # _lcp_at_least[l] counts the empty queries with L(q) >= l.
        histogram = np.bincount(self._empty_lcp, minlength=width + 1)
        suffix = np.zeros(width + 2, dtype=np.int64)
        suffix[: width + 1] = np.cumsum(histogram[::-1])[::-1]
        self._lcp_at_least = suffix.tolist()
        if metrics is not None:
            metrics.inc("cpfpr.models")
            metrics.inc("cpfpr.sample_queries", self.num_queries)
            metrics.inc("cpfpr.empty_queries", self.num_empty_queries)
            metrics.observe("cpfpr.setup_seconds", perf_counter() - setup_start)
        # Per-length slot intervals and certainty masks: the 2PBF sweep
        # revisits them for every pair of layers it combines.
        self._slot_cache: dict[int, tuple] = {}
        self._certain_cache: dict[int, np.ndarray] = {}

    def _setup_bytes(self, keyset, batch) -> None:
        """Byte-mode setup: exact emptiness and LCPs over the S-dtype views.

        The padded S-dtype key array searchsorts in key order, so emptiness
        is two searchsorted passes and ``lcp(q, K)`` is the rowwise byte-XOR
        LCP against the predecessor of ``lo`` / successor of ``hi`` — the
        same neighbour argument :func:`repro.keys.lcp.query_set_lcp_many`
        uses.
        """
        width = self.width
        keys_s = keyset.keys
        matrix = keyset.matrix
        lo_m, hi_m = batch.lo_matrix, batch.hi_matrix
        lcps = np.full(len(batch), width, dtype=np.int64)
        n = len(keyset)
        if n and len(batch):
            left = np.searchsorted(keys_s, batch.los, side="left")
            right = np.searchsorted(keys_s, batch.his, side="right")
            empty_rows = np.nonzero(right <= left)[0]
            values = np.zeros(empty_rows.size, dtype=np.int64)
            l_e, r_e = left[empty_rows], right[empty_rows]
            has_left = l_e > 0
            if has_left.any():
                values[has_left] = lcp_bits_rows(
                    matrix[l_e[has_left] - 1], lo_m[empty_rows[has_left]]
                )
            has_right = r_e < n
            if has_right.any():
                candidate = lcp_bits_rows(
                    matrix[r_e[has_right]], hi_m[empty_rows[has_right]]
                )
                values[has_right] = np.maximum(values[has_right], candidate)
            lcps[empty_rows] = values
        else:
            lcps[:] = 0 if len(batch) else width
        empty = lcps < width
        self._empty_lo_m = lo_m[empty]
        self._empty_hi_m = hi_m[empty]
        self._empty_lcp = lcps[empty]
        self._rows = kernels.bind_cpfpr_byte_row(
            self._empty_lo_m, self._empty_hi_m, self._empty_lcp, self.max_probes,
            self._prefix_count_array,
        )

    @property
    def empty_queries(self) -> list[tuple[int, int, int]]:
        """Per empty query: ``(lo, hi, L)`` with ``L = lcp(q, K)`` (lazy list).

        Integer bounds are the user's; byte mode renders them as padded
        big-endian integers — the scalar-loop convention for byte keys
        throughout the repo.
        """
        if self._empty_list is None:
            if self.is_bytes:
                self._empty_list = [
                    (
                        int.from_bytes(lo.tobytes(), "big"),
                        int.from_bytes(hi.tobytes(), "big"),
                        lcp,
                    )
                    for lo, hi, lcp in zip(
                        self._empty_lo_m, self._empty_hi_m, self._empty_lcp.tolist()
                    )
                ]
            else:
                self._empty_list = list(
                    zip(
                        decode_ints(self._empty_lo, self.width).tolist(),
                        decode_ints(self._empty_hi, self.width).tolist(),
                        self._empty_lcp.tolist(),
                    )
                )
        return self._empty_list

    @property
    def num_empty_queries(self) -> int:
        return int(self._empty_lcp.size)

    def certain_fp_fraction(self, length: int) -> float:
        """Fraction of empty queries with ``lcp(q, K) >= length``.

        These queries are guaranteed false positives for any design whose
        finest layer is ``length`` bits — the lower bound Algorithm 1 prunes
        dominated candidates with.
        """
        total = self.num_empty_queries
        if not total:
            return 0.0
        return self._lcp_at_least[min(length, self.width + 1)] / total

    def bloom_probe_fpr(self, num_bits: int, length: int) -> float:
        """Single-probe FPR of a Bloom filter over the ``length``-prefix set."""
        return bloom_fpr(num_bits, self.prefix_counts[length])

    # ------------------------------------------------------------------ #
    # Design evaluators                                                  #
    # ------------------------------------------------------------------ #

    def proteus_fpr(self, trie_depth: int, bloom_prefix_len: int, bloom_bits: int) -> float:
        """Expected FPR of a Proteus design (trie at ``l1``, Bloom at ``l2``).

        ``trie_depth == 0`` degenerates to a pure prefix Bloom filter (1PBF);
        ``bloom_prefix_len == 0`` to a trie-only filter.  The two layers must
        satisfy ``l1 < l2`` when both are present.
        """
        l1, l2 = trie_depth, bloom_prefix_len
        self._validate_layers(l1, l2)
        if self.metrics is not None:
            self.metrics.inc("cpfpr.evaluations")
        if l2 == 0:
            # Trie-only design: deterministic, every gated query is a FP.
            return self.certain_fp_fraction(l1)
        return self.proteus_fpr_row(l1, [l2], bloom_bits)[0]

    def proteus_fpr_row(
        self, trie_depth: int, bloom_prefix_lens: Sequence[int], bloom_bits: int
    ) -> list[float]:
        """Expected FPRs of the designs ``(trie_depth, l2, bloom_bits)``.

        One value per ``l2`` in ``bloom_prefix_lens``, each equal bit for
        bit to :meth:`proteus_fpr` on that design, computed in one pass
        over the queries the trie gate admits: one call of the model's
        row-kernel binding, :func:`repro.kernels.cpfpr_row` for integer
        keys and :func:`repro.kernels.cpfpr_byte_row` for byte keys.  Every
        ``l2`` must lie in ``(trie_depth, width]``.  Unlike
        :meth:`proteus_fpr`, this counts no ``cpfpr.evaluations``:
        Algorithm 1 counts the candidates it reads, which may be fewer.
        """
        l1, lens = trie_depth, list(bloom_prefix_lens)
        if not lens:
            return []
        if not 0 <= l1 < min(lens) or max(lens) > self.width:
            raise ValueError(f"Bloom prefix lengths {lens} must lie in ({l1}, {self.width}]")
        if not self.num_empty_queries:
            return [0.0] * len(lens)
        return self._rows(l1, lens, bloom_bits).tolist()

    def _slot_info(self, l2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-query ``(plo, phi, clamped)`` at prefix length ``l2`` (cached)."""
        info = self._slot_cache.get(l2)
        if info is None:
            info = slot_bounds(
                self._empty_lo, self._empty_hi, self.width, l2, self.max_probes
            )
            self._slot_cache[l2] = info
        return info

    def _certain_mask(self, l2: int) -> np.ndarray:
        """Boolean ``lcp(q, K) >= l2`` mask (cached)."""
        certain = self._certain_cache.get(l2)
        if certain is None:
            certain = self._empty_lcp >= l2
            self._certain_cache[l2] = certain
        return certain

    # ------------------------------------------------------------------ #
    # Byte-mode evaluators                                               #
    # ------------------------------------------------------------------ #
    #
    # Byte-string key spaces run the same contextual decomposition over
    # the uint8 matrix views: the trie gate is the same ``L(q) >= l1`` and
    # the slot interval comes from the shared low-64 window machinery,
    # mirroring the byte filters' clamp rule exactly.  One deliberate
    # difference from the int64 evaluator: a gated query is charged its
    # *whole* slot interval, because the byte-mode Proteus filter probes
    # every l2-slot once its trie gate passes (it has no per-l1-block slot
    # pruning) — the model mirrors the filter it predicts, not the int64 one.
    # The Proteus rows run in :func:`repro.kernels.cpfpr_byte_row`; the
    # helpers below serve the 2PBF layers.

    def _byte_slot_info(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-query ``(num_slots, clamped)`` at prefix length ``length``.

        ``num_slots`` is valid where unclamped (clamped queries read 1).
        """
        info = self._slot_cache.get(length)
        if info is None:
            _, _, span, clamped = byte_slot_bounds(
                self._empty_lo_m, self._empty_hi_m, length, self.max_probes
            )
            info = (span + 1, clamped)
            self._slot_cache[length] = info
        return info

    def _layer_pass_probability_bytes(self, length: int, bits: int) -> np.ndarray:
        """Byte-mode :meth:`_layer_pass_probability` (certain => probability 1)."""
        p = self.bloom_probe_fpr(bits, length)
        slots, clamped = self._byte_slot_info(length)
        certain = self._certain_mask(length) | clamped
        safe = np.where(certain, 0.0, slots)
        return np.where(certain, 1.0, 1.0 - (1.0 - p) ** safe)

    def one_pbf_fpr(self, bloom_prefix_len: int, bloom_bits: int) -> float:
        """Expected FPR of a single-layer prefix Bloom filter (1PBF)."""
        return self.proteus_fpr(0, bloom_prefix_len, bloom_bits)

    def two_pbf_fpr(
        self,
        first_prefix_len: int,
        second_prefix_len: int,
        first_bits: int,
        second_bits: int,
        layers: dict | None = None,
    ) -> float:
        """Expected FPR of a two-layer prefix Bloom filter (2PBF).

        The layers use independent hash seeds, so on a query that neither
        layer certainly accepts the two false-positive events multiply.
        ``layers`` optionally memoises each layer's per-query pass
        probabilities by ``(length, bits)``: Algorithm 1's 2PBF search
        passes one dict per search, so each layer vector is computed once
        however many candidates share it.
        """
        l1, l2 = first_prefix_len, second_prefix_len
        if not 0 < l1 < l2 <= self.width:
            raise ValueError(f"need 0 < l1 < l2 <= width, got ({l1}, {l2})")
        if self.metrics is not None:
            self.metrics.inc("cpfpr.evaluations")
        if not self.num_empty_queries:
            return 0.0
        if layers is None:
            layers = {}
        total = self._pass_probability(l1, first_bits, layers)
        total = total * self._pass_probability(l2, second_bits, layers)
        return float(total.sum() / self.num_empty_queries)

    def _pass_probability(self, length: int, bits: int, layers: dict) -> np.ndarray:
        """One Bloom layer's per-query pass probabilities, memoised in ``layers``."""
        probability = layers.get((length, bits))
        if probability is None:
            if self.is_bytes:
                probability = self._layer_pass_probability_bytes(length, bits)
            else:
                probability = self._layer_pass_probability(length, bits)
            layers[(length, bits)] = probability
        return probability

    def _layer_pass_probability(self, length: int, bits: int) -> np.ndarray:
        """Per-query probability that one Bloom layer answers positively."""
        p = self.bloom_probe_fpr(bits, length)
        plo, phi, clamped = self._slot_info(length)
        certain = self._certain_mask(length) | clamped
        # The + 1 lands after the where: phi - plo + 1 would overflow int64
        # for clamped full-space queries at widths 63 and 64.
        slots = np.where(certain, -1, phi - plo) + 1
        return np.where(certain, 1.0, 1.0 - (1.0 - p) ** slots)

    def _validate_layers(self, trie_depth: int, bloom_prefix_len: int) -> None:
        if not 0 <= trie_depth <= self.width:
            raise ValueError(f"trie depth {trie_depth} outside [0, {self.width}]")
        if not 0 <= bloom_prefix_len <= self.width:
            raise ValueError(
                f"Bloom prefix length {bloom_prefix_len} outside [0, {self.width}]"
            )
        if bloom_prefix_len and trie_depth >= bloom_prefix_len:
            raise ValueError(
                f"trie depth {trie_depth} must be shorter than the Bloom prefix "
                f"length {bloom_prefix_len}"
            )
