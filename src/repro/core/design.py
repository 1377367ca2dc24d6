"""Algorithm 1: enumerate candidate designs and pick the CPFPR-minimal one.

A *design* fixes the two prefix lengths of a protean filter — trie depth
``l1`` and Bloom prefix length ``l2`` — plus the split of the bit budget
between the layers.  Algorithm 1 walks the design space under a total bit
budget, charging the trie layer its modelled succinct footprint
(:func:`repro.trie.size_model.binary_trie_size_estimate`) and handing the
remainder to the Bloom layer, and keeps the design with the smallest
expected FPR under the CPFPR model.

Two prunes keep the walk cheap, both exact (no optimal design is skipped):

* **feasibility** — ``trieMem(l1)`` is non-decreasing in ``l1``, so the
  ``l1`` loop stops at the first depth that no longer fits the budget;
* **dominance** — every empty query with ``lcp(q, K) >= l2`` is a certain
  false positive regardless of how many bits the Bloom layer gets, so
  ``certain_fp_fraction(l2)`` lower-bounds the design's FPR; candidates
  whose bound already meets the incumbent's FPR are skipped without
  evaluating the model.

A third shortcut is unconditional: an incumbent with expected FPR 0 cannot
be improved, so the walk stops outright (common on workloads whose sample
queries are all far from the key set).

Each trie depth ``l1`` is one evaluation pass.  The certain-FP floor does
not rise with ``l2``, so the ``l2`` values it has not pruned at the start
of a depth form a suffix of the depth's range; the CPFPR model evaluates
that suffix in one pass
(:meth:`~repro.core.cpfpr.CPFPRModel.proteus_fpr_row`, one compiled
``cpfpr_row`` kernel call for integer keys where the cc backend is
available) over the queries its closed-form trie gate ``L(q) >= l1``
admits, with no searches.  Each
candidate's FPR is still its own 1-D sum in query order: numpy's pairwise
summation rounds by length and order, so summing the pass as one 2-D
array would move ``expected_fpr`` in its last bits and could flip a tie.
The walk then reads the depth's values in ``l2`` order under the same
rules as a walk that evaluated each candidate in turn: the dominance
prune against the current incumbent, the zero-FPR break and the
strict-``<`` tie-break.  Values computed for candidates that a newer
incumbent prunes are dropped, so the design, the
``design.candidates``/``design.pruned_dominated`` counts and the
``cpfpr.evaluations`` count all equal that walk's.

Layer depths advance in ``model.design_step``-bit increments: 1 for
integer key spaces, 8 for byte-string ones (where the structures index at
byte granularity, so sub-byte depths add cost without adding resolution).

The 2PBF search evaluates every ``(l1, l2, split)`` candidate in turn, but
computes each ``(length, bits)`` layer's per-query pass probabilities
once per search and reuses them for every candidate that shares the
layer; each candidate's product and sum, and so its FPR, are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.core.cpfpr import CPFPRModel
from repro.trie.size_model import binary_trie_size_estimate

#: A Bloom layer narrower than this is pointless; such candidates are skipped.
MIN_BLOOM_BITS = 8

#: Candidate budget splits between the two Bloom layers of a 2PBF.
TWO_PBF_SPLITS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class FilterDesign:
    """One point of the protean design space, with its predicted FPR.

    ``trie_depth == 0`` means no trie layer; ``bloom_prefix_len == 0`` means
    no (second) Bloom layer.  For 2PBF designs ``trie_depth``/``trie_bits``
    describe the *first Bloom layer* instead of a trie — ``kind`` says which.
    """

    kind: str  # "proteus" | "1pbf" | "2pbf"
    trie_depth: int
    bloom_prefix_len: int
    trie_bits: int
    bloom_bits: int
    expected_fpr: float

    def total_bits(self) -> int:
        return self.trie_bits + self.bloom_bits


def _emit_design_metrics(
    metrics,
    kind: str,
    best: FilterDesign,
    candidates: int,
    pruned: int,
    start: float,
) -> None:
    """Record one Algorithm 1 search: counts, timing, and the winner's shape."""
    metrics.inc("design.searches")
    metrics.inc("design.candidates", candidates)
    metrics.inc("design.pruned_dominated", pruned)
    metrics.inc(f"design.{kind}.searches")
    metrics.observe("design.seconds", perf_counter() - start)
    metrics.set_gauge("design.last_expected_fpr", best.expected_fpr)
    metrics.set_gauge("design.last_trie_depth", best.trie_depth)
    metrics.set_gauge("design.last_bloom_prefix_len", best.bloom_prefix_len)
    metrics.set_gauge("design.last_total_bits", best.total_bits())


def design_proteus(
    model: CPFPRModel, total_bits: int, metrics=None
) -> FilterDesign:
    """Run Algorithm 1 over the full trie + Bloom design space.

    ``metrics`` optionally records the search: candidate evaluations,
    dominance prunes, wall-clock seconds, and the winning design's shape.
    """
    if total_bits <= 0:
        raise ValueError("the bit budget must be positive")
    start = perf_counter() if metrics is not None else 0.0
    width = model.width
    if not model.num_empty_queries:
        # No empty sample query carries any signal; default to the finest
        # Bloom-only design, which maximises discrimination for point lookups.
        fallback = FilterDesign("proteus", 0, width, 0, total_bits, 0.0)
        if metrics is not None:
            _emit_design_metrics(metrics, "proteus", fallback, 0, 0, start)
        return fallback
    candidates = pruned = 0
    best: FilterDesign | None = None
    step = getattr(model, "design_step", 1)
    floor = [model.certain_fp_fraction(length) for length in range(width + 1)]
    for trie_depth in range(0, width + 1, step):
        if best is not None and best.expected_fpr == 0.0:
            break  # nothing can beat a zero-FPR incumbent
        trie_bits = binary_trie_size_estimate(model.prefix_counts, trie_depth)
        if trie_depth > 0 and trie_bits > total_bits:
            break  # trieMem is non-decreasing in the depth: nothing deeper fits
        bloom_budget = total_bits - trie_bits
        # Trie-only candidate (l2 = 0): deterministic, certain_fp_fraction(l1).
        trie_only_fpr = floor[trie_depth]
        candidates += 1
        if best is None or trie_only_fpr < best.expected_fpr:
            best = FilterDesign(
                "proteus", trie_depth, 0, trie_bits, 0, trie_only_fpr
            )
        if bloom_budget < MIN_BLOOM_BITS:
            continue
        lens = range(trie_depth + step, width + 1, step)
        first = 0
        while first < len(lens) and floor[lens[first]] >= best.expected_fpr:
            first += 1
        fprs = model.proteus_fpr_row(trie_depth, lens[first:], bloom_budget)
        evaluated = 0
        for index, bloom_len in enumerate(lens):
            if best.expected_fpr == 0.0:
                break
            if floor[bloom_len] >= best.expected_fpr:
                pruned += 1
                continue  # dominated: the certain-FP floor alone is no better
            candidates += 1
            evaluated += 1
            fpr = fprs[index - first]
            if fpr < best.expected_fpr:
                best = FilterDesign(
                    "proteus", trie_depth, bloom_len, trie_bits, bloom_budget, fpr
                )
        if evaluated and model.metrics is not None:
            model.metrics.inc("cpfpr.evaluations", evaluated)
    assert best is not None
    if metrics is not None:
        _emit_design_metrics(metrics, "proteus", best, candidates, pruned, start)
    return best


def design_one_pbf(
    model: CPFPRModel, total_bits: int, metrics=None
) -> FilterDesign:
    """Algorithm 1 restricted to single-Bloom-layer (1PBF) designs."""
    if total_bits <= 0:
        raise ValueError("the bit budget must be positive")
    start = perf_counter() if metrics is not None else 0.0
    width = model.width
    if not model.num_empty_queries:
        fallback = FilterDesign("1pbf", 0, width, 0, total_bits, 0.0)
        if metrics is not None:
            _emit_design_metrics(metrics, "1pbf", fallback, 0, 0, start)
        return fallback
    candidates = pruned = 0
    best: FilterDesign | None = None
    step = getattr(model, "design_step", 1)
    for bloom_len in range(step, width + 1, step):
        if best is not None and model.certain_fp_fraction(bloom_len) >= best.expected_fpr:
            pruned += 1
            continue
        candidates += 1
        fpr = model.one_pbf_fpr(bloom_len, total_bits)
        if best is None or fpr < best.expected_fpr:
            best = FilterDesign("1pbf", 0, bloom_len, 0, total_bits, fpr)
    assert best is not None
    if metrics is not None:
        _emit_design_metrics(metrics, "1pbf", best, candidates, pruned, start)
    return best


def design_two_pbf(
    model: CPFPRModel, total_bits: int, metrics=None
) -> FilterDesign:
    """Algorithm 1 restricted to two-Bloom-layer (2PBF) designs."""
    if total_bits <= 0:
        raise ValueError("the bit budget must be positive")
    start = perf_counter() if metrics is not None else 0.0
    width = model.width
    if not model.num_empty_queries:
        fallback = FilterDesign(
            "2pbf",
            1,
            width,
            max(1, total_bits // 2),
            max(1, total_bits - total_bits // 2),
            0.0,
        )
        if metrics is not None:
            _emit_design_metrics(metrics, "2pbf", fallback, 0, 0, start)
        return fallback
    candidates = pruned = 0
    best: FilterDesign | None = None
    step = getattr(model, "design_step", 1)
    layers: dict = {}  # each (length, bits) layer's pass probabilities, this search only
    for first_len in range(step, width, step):
        for second_len in range(first_len + step, width + 1, step):
            if (
                best is not None
                and model.certain_fp_fraction(second_len) >= best.expected_fpr
            ):
                pruned += 1
                continue
            for split in TWO_PBF_SPLITS:
                first_bits = int(total_bits * split)
                second_bits = total_bits - first_bits
                if first_bits < MIN_BLOOM_BITS or second_bits < MIN_BLOOM_BITS:
                    continue
                candidates += 1
                fpr = model.two_pbf_fpr(
                    first_len, second_len, first_bits, second_bits, layers
                )
                if best is None or fpr < best.expected_fpr:
                    best = FilterDesign(
                        "2pbf", first_len, second_len, first_bits, second_bits, fpr
                    )
    if best is None:
        # Budget too small for two layers: fall back to the finest 1PBF shape.
        return design_one_pbf(model, total_bits, metrics)
    if metrics is not None:
        _emit_design_metrics(metrics, "2pbf", best, candidates, pruned, start)
    return best
