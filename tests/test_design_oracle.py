"""Algorithm 1's one-pass-per-depth search pinned to per-candidate evaluation.

``CPFPRModel.proteus_fpr_row`` evaluates every Bloom prefix length ``l2``
of one trie depth ``l1`` in a single numpy pass, with a closed-form trie
gate (``L(q) >= l1``, boundary blocks from the two halves of ``L``).  The
functions below are the forms it replaced: one numpy evaluation per
candidate, with a trie gate found by ``searchsorted`` over the stored
``l1``-prefixes, and the design loop that called them one candidate at a
time.  The two must agree exactly:

* every ``(l1, l2)`` prediction, compared by ``float.hex``;
* every design ``design_proteus`` picks, at several budgets;
* the ``design.candidates``, ``design.pruned_dominated`` and
  ``cpfpr.evaluations`` counts;
* the closed-form gate and the searchsorted gate, query by query.

Rows are served by the ``cpfpr_row`` kernel for integer keys and the
``cpfpr_byte_row`` kernel for byte keys, so every test runs under each
backend in ``kernels.available_backends()``: the compiled row passes must
pick the same designs, bit for bit, as the numpy ones.

Workloads cover int64 key spaces of 8–64 bits (uniform and clustered
keys; point, short, wide and full-space queries; ``max_probes`` 1, 2 and
64; at width 64, stored offset-binary keys and bounds on both sides of
``2**63``), 72- and 80-bit integers on the byte path, byte-string keys of
1–6 bytes, and keys of 9–16 bytes (YCSB's ``user`` + 10 digits among
them) whose bounds share long prefixes, so slot intervals cross the
byte filters' trailing-eight-byte window.

The 2PBF search computes each layer's pass probabilities once per
search; :func:`reference_two_pbf_design` is its per-candidate loop, and
the two must pick the same design with the same counts.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.cpfpr import CPFPRModel
from repro.core.design import (
    MIN_BLOOM_BITS,
    TWO_PBF_SPLITS,
    FilterDesign,
    design_one_pbf,
    design_proteus,
    design_two_pbf,
)
from repro.keys.bytestr import byte_slot_bounds, mask_rows, rows_as_strings
from repro.obs.metrics import MetricsRegistry
from repro.trie.size_model import binary_trie_size_estimate
from repro.workloads.batch import slot_bounds
from repro.workloads.bytekeys import ByteKeySet, ByteQueryBatch

# --------------------------------------------------------------------- #
# The reference: one evaluation per candidate                           #
# --------------------------------------------------------------------- #


def reference_gate_info(model, l1):
    """Searchsorted trie gate at depth ``l1`` over the stored prefixes.

    Returns ``(gate, strict_lo, strict_hi, has_lo, has_hi)``: ``gate`` is
    "some stored prefix lies in the query's l1-slot interval [blo, bhi]",
    ``strict_lo``/``strict_hi`` bracket the stored prefixes strictly
    inside it, and ``has_lo``/``has_hi`` say whether ``blo``/``bhi`` are
    stored.
    """
    trie = model._keyset.prefixes(l1)
    blo, bhi, _ = slot_bounds(
        model._empty_lo, model._empty_hi, model.width, l1, model.max_probes
    )
    i_l = np.searchsorted(trie, blo, side="left")
    i_r = np.searchsorted(trie, blo, side="right")
    j_l = np.searchsorted(trie, bhi, side="left")
    j_r = np.searchsorted(trie, bhi, side="right")
    return j_r > i_l, i_r, j_l, i_r > i_l, j_r > j_l


def reference_byte_gate(model, l1):
    """Searchsorted trie gate over the stored ``l1``-prefix rows."""
    stored = rows_as_strings(model._keyset.prefixes(l1))
    plo = rows_as_strings(mask_rows(model._empty_lo_m, l1))
    phi = rows_as_strings(mask_rows(model._empty_hi_m, l1))
    i = np.searchsorted(stored, plo, side="left")
    j = np.searchsorted(stored, phi, side="right")
    return j > i


def reference_fpr_vector(model, l1, l2, bloom_bits):
    num_empty = model._empty_lo.size
    gate = None
    if l1:
        gate, strict_lo, strict_hi, has_lo, has_hi = reference_gate_info(model, l1)
    if l2 == 0:
        return 1.0 if gate is None else float(gate.sum() / num_empty)
    plo, phi, clamped = slot_bounds(
        model._empty_lo, model._empty_hi, model.width, l2, model.max_probes
    )
    certain = (model._empty_lcp >= l2) | clamped
    if gate is not None:
        sure = gate & certain
        active = gate & ~certain
    else:
        sure = certain
        active = ~certain
    total = float(sure.sum())
    if active.any():
        plo_a, phi_a = plo[active], phi[active]
        if l1:
            gap = l2 - l1
            mask = np.int64((1 << gap) - 1)
            blo, bhi, _ = slot_bounds(
                model._empty_lo, model._empty_hi, model.width, l1, model.max_probes
            )
            blo_a, bhi_a = blo[active], bhi[active]
            middle = np.maximum(strict_hi[active] - strict_lo[active], 0)
            first = np.where(
                has_lo[active],
                np.minimum(phi_a, (blo_a << gap) + mask) - plo_a + 1,
                0,
            )
            last = np.where(
                has_hi[active],
                phi_a - np.maximum(plo_a, bhi_a << gap) + 1,
                0,
            )
            probes = np.where(
                blo_a == bhi_a,
                np.where(has_lo[active], phi_a - plo_a + 1, 0),
                (middle << gap) + first + last,
            )
        else:
            probes = phi_a - plo_a + 1
        probe_fpr = model.bloom_probe_fpr(bloom_bits, l2)
        total += float((1.0 - (1.0 - probe_fpr) ** probes).sum())
    return total / num_empty


def reference_fpr_bytes(model, l1, l2, bloom_bits):
    num_empty = model.num_empty_queries
    gate = reference_byte_gate(model, l1) if l1 else None
    if l2 == 0:
        return 1.0 if gate is None else float(gate.sum() / num_empty)
    _, _, span, clamped = byte_slot_bounds(
        model._empty_lo_m, model._empty_hi_m, l2, model.max_probes
    )
    slots = span.astype(np.float64) + 1.0
    certain = (model._empty_lcp >= l2) | clamped
    if gate is not None:
        sure = gate & certain
        active = gate & ~certain
    else:
        sure = certain
        active = ~certain
    total = float(sure.sum())
    if active.any():
        probe_fpr = model.bloom_probe_fpr(bloom_bits, l2)
        total += float((1.0 - (1.0 - probe_fpr) ** slots[active]).sum())
    return total / num_empty


def reference_fpr(model, l1, l2, bloom_bits):
    """Per-candidate prediction on whichever path the model runs."""
    if not model.num_empty_queries:
        return 0.0
    if model.is_bytes:
        return reference_fpr_bytes(model, l1, l2, bloom_bits)
    return reference_fpr_vector(model, l1, l2, bloom_bits)


def reference_design(model, total_bits):
    """Algorithm 1, one candidate evaluation at a time.

    Returns ``(design, candidates, pruned, evaluations)``.
    """
    width = model.width
    if not model.num_empty_queries:
        return FilterDesign("proteus", 0, width, 0, total_bits, 0.0), 0, 0, 0
    candidates = pruned = evaluations = 0
    best = None
    step = model.design_step
    for trie_depth in range(0, width + 1, step):
        if best is not None and best.expected_fpr == 0.0:
            break
        trie_bits = binary_trie_size_estimate(model.prefix_counts, trie_depth)
        if trie_depth > 0 and trie_bits > total_bits:
            break
        bloom_budget = total_bits - trie_bits
        trie_only_fpr = model.certain_fp_fraction(trie_depth)
        candidates += 1
        if best is None or trie_only_fpr < best.expected_fpr:
            best = FilterDesign("proteus", trie_depth, 0, trie_bits, 0, trie_only_fpr)
        if bloom_budget < MIN_BLOOM_BITS:
            continue
        for bloom_len in range(trie_depth + step, width + 1, step):
            if best.expected_fpr == 0.0:
                break
            if model.certain_fp_fraction(bloom_len) >= best.expected_fpr:
                pruned += 1
                continue
            candidates += 1
            evaluations += 1
            fpr = reference_fpr(model, trie_depth, bloom_len, bloom_budget)
            if fpr < best.expected_fpr:
                best = FilterDesign(
                    "proteus", trie_depth, bloom_len, trie_bits, bloom_budget, fpr
                )
    return best, candidates, pruned, evaluations


def reference_two_pbf_design(model, total_bits):
    """Algorithm 1's 2PBF search, each candidate's layers computed afresh.

    Returns ``(design, candidates, pruned, evaluations)``.
    """
    width, step = model.width, model.design_step
    if not model.num_empty_queries:
        half = total_bits // 2
        return FilterDesign("2pbf", 1, width, max(1, half), max(1, total_bits - half), 0.0), 0, 0, 0
    candidates = pruned = evaluations = 0
    best = None
    for first_len in range(step, width, step):
        for second_len in range(first_len + step, width + 1, step):
            if best is not None and model.certain_fp_fraction(second_len) >= best.expected_fpr:
                pruned += 1
                continue
            for split in TWO_PBF_SPLITS:
                first_bits = int(total_bits * split)
                second_bits = total_bits - first_bits
                if first_bits < MIN_BLOOM_BITS or second_bits < MIN_BLOOM_BITS:
                    continue
                candidates += 1
                evaluations += 1
                fpr = model.two_pbf_fpr(first_len, second_len, first_bits, second_bits)
                if best is None or fpr < best.expected_fpr:
                    best = FilterDesign(
                        "2pbf", first_len, second_len, first_bits, second_bits, fpr
                    )
    if best is None:
        return design_one_pbf(model, total_bits), None, None, None
    return best, candidates, pruned, evaluations


# --------------------------------------------------------------------- #
# Workloads                                                             #
# --------------------------------------------------------------------- #


def int_keys(rng, width, count, clustered):
    top = (1 << width) - 1
    if not clustered:
        return sorted({rng.randint(0, top) for _ in range(count)})
    keys = set()
    spread = 1 << rng.randint(0, max(0, width - 4))
    for _ in range(rng.randint(1, 4)):
        centre = rng.randint(0, top)
        for _ in range(count // 2 + 1):
            keys.add(min(top, max(0, centre + rng.randint(-spread, spread))))
    return sorted(keys)


def int_queries(rng, width, keys, count):
    """Point, short, wide and near-full-space queries, many just above or
    just below a key, so both boundary blocks of a query get stored."""
    top = (1 << width) - 1
    queries = [(0, top)]
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 3:
            queries.append((rng.randint(0, top // 4), top - rng.randint(0, top // 4)))
            continue
        length = (0, rng.randint(0, 16), 1 << rng.randint(0, width))[kind]
        key = rng.choice(keys)
        if rng.random() < 0.4:
            lo = min(top, key + 1)
            hi = min(top, lo + length)
        elif rng.random() < 0.6:
            hi = max(0, key - 1)
            lo = max(0, hi - length)
        else:
            lo = rng.randint(0, top)
            hi = min(top, lo + length)
        queries.append((lo, hi))
    return queries


def byte_workload(rng, count, queries):
    """Byte keys with interior and trailing nulls; point, near-miss and
    random-pair queries plus one full-space query."""
    alphabet = b"ab\x00\xff"
    words = {
        bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        for _ in range(count)
    }
    keys = ByteKeySet(sorted(words))
    length = keys.max_length
    listed = keys.as_list()
    pairs = [(b"\x00", b"\xff" * length)]
    for _ in range(queries):
        word = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, length)))
        kind = rng.randrange(3)
        if kind == 0:
            lo = hi = word
        elif kind == 1:
            lo = (rng.choice(listed) + bytes([rng.randint(1, 254)]))[:length]
            hi = (lo + b"\xff" * rng.randint(0, 2))[:length]
        else:
            lo, hi = word, bytes(rng.choice(alphabet) for _ in range(rng.randint(1, length)))
        if lo.ljust(length, b"\x00") > hi.ljust(length, b"\x00"):
            lo, hi = hi, lo
        pairs.append((lo, hi))
    return keys, ByteQueryBatch.from_pairs(pairs, length)


def user_key(number):
    """YCSB's key for one id: ``user`` and 10 digits, 14 bytes."""
    return b"user%010d" % number


def long_byte_workload(rng, count, queries):
    """Keys of 9-16 bytes, YCSB's ``user`` + 10 digits or a short stem with
    a long tail, and bounds that share long prefixes with keys and with
    each other: scans of 1-100 ids, near misses, and short ranges whose
    carry makes the bounds differ bytes before their end, so their slot
    intervals cross the trailing-eight-byte window."""
    if rng.random() < 0.5:
        ids = sorted(rng.sample(range(100_000), count))
        keys = ByteKeySet([user_key(i) for i in ids])
    else:
        stem = bytes(rng.choice(b"ab\x00\xff") for _ in range(rng.randint(1, 4)))
        size = rng.randint(9, 16)
        tails = {
            bytes(rng.choice(b"\x00\x01\xfe\xff") for _ in range(size - len(stem)))
            for _ in range(count)
        }
        keys = ByteKeySet(sorted(stem + tail for tail in tails))
        ids = None
    length = keys.max_length
    top = (1 << 8 * length) - 1
    listed = keys.as_list()
    pairs = []
    for _ in range(queries):
        kind = rng.randrange(3)
        if kind == 0 and ids is not None:
            start = rng.choice(ids) + rng.randint(-100, 100)
            lo, hi = user_key(max(0, start)), user_key(max(0, start) + rng.randint(1, 100))
        else:
            key = int.from_bytes(listed[rng.randrange(len(listed))].ljust(length, b"\x00"), "big")
            if kind == 1:  # a near miss just above or below a key
                lo = min(top, key + rng.randint(1, 3)) if rng.random() < 0.5 else max(0, key - 40)
                hi = min(top, lo + rng.randint(0, 30))
            else:  # a carry across the low bytes: lo = x ff..ff, hi = (x + 1) 00..
                tail = 8 * rng.randint(1, length)
                lo = min(top, (key >> tail << tail) + (1 << tail) - 1 - rng.randint(0, 3))
                hi = min(top, lo + rng.randint(1, 6))
            lo, hi = (v.to_bytes(length, "big") for v in (lo, hi))
        pairs.append((lo, hi))
    return keys, ByteQueryBatch.from_pairs(pairs, length)


@st.composite
def int_cases(draw):
    width = draw(st.integers(8, 63))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keys = int_keys(rng, width, draw(st.integers(1, 60)), draw(st.booleans()))
    queries = int_queries(rng, width, keys, draw(st.integers(0, 40)))
    return keys, width, queries, draw(st.sampled_from([1, 2, 64]))


@st.composite
def wide_cases(draw):
    width = draw(st.sampled_from([64, 72, 80]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keys = int_keys(rng, width, draw(st.integers(1, 30)), draw(st.booleans()))
    if width == 64 and draw(st.booleans()):
        # Keys and bounds on both sides of 2**63, where stored keys change sign.
        keys = sorted(set(keys) | {(1 << 63) + rng.randint(-40, 40) for _ in range(8)})
    queries = int_queries(rng, width, keys, draw(st.integers(0, 20)))
    if width == 64:
        queries += [
            ((1 << 63) - rng.randint(1, 50), (1 << 63) + rng.randint(0, 50)),
            ((1 << 63) - 1, 1 << 63),
        ]
    return keys, width, queries, draw(st.sampled_from([1, 2, 64]))


@st.composite
def byte_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keys, batch = byte_workload(rng, draw(st.integers(1, 40)), draw(st.integers(0, 50)))
    return keys, keys.width, batch, draw(st.sampled_from([1, 2, 64]))


@st.composite
def long_byte_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keys, batch = long_byte_workload(
        rng, draw(st.integers(1, 30)), draw(st.integers(0, 40))
    )
    return keys, keys.width, batch, draw(st.sampled_from([1, 2, 64]))


# --------------------------------------------------------------------- #
# Checks                                                                #
# --------------------------------------------------------------------- #

BITS_PER_KEY = (1, 4, 10, 24)


def check_rows(model, rng):
    """Rows of a few trie depths: every candidate equal by float.hex."""
    width, step = model.width, model.design_step
    depths = sorted({0, step, width - step, rng.randrange(0, width + 1, step)})
    for l1 in depths:
        bits = rng.choice([MIN_BLOOM_BITS, 64, 1 << rng.randint(4, 14)])
        lens = list(range(l1 + step, width + 1, step))
        row = model.proteus_fpr_row(l1, lens, bits)
        expected = [reference_fpr(model, l1, l2, bits) for l2 in lens]
        assert [v.hex() for v in row] == [v.hex() for v in expected], (l1, bits)
        for l2 in lens[:3] + [0]:
            got = model.proteus_fpr(l1, l2, bits)
            assert got.hex() == reference_fpr(model, l1, l2, bits).hex(), (l1, l2)


def check_designs(keys, width, queries, max_probes):
    for bits_per_key in BITS_PER_KEY:
        registry = MetricsRegistry()
        model = CPFPRModel(keys, width, queries, max_probes, metrics=registry)
        total_bits = max(1, bits_per_key * len(model._keyset))
        design = design_proteus(model, total_bits, registry)
        expected, candidates, pruned, evaluations = reference_design(model, total_bits)
        assert design == expected
        assert design.expected_fpr.hex() == expected.expected_fpr.hex()
        counters = registry.to_dict()["counters"]
        assert counters.get("design.candidates", 0) == candidates
        assert counters.get("design.pruned_dominated", 0) == pruned
        assert counters.get("cpfpr.evaluations", 0) == evaluations


def check_gate(model):
    """The closed-form gate is the searchsorted gate, and only boundary
    blocks ever hold a stored prefix."""
    lcp = np.array([lcp for _, _, lcp in model.empty_queries], dtype=np.int64)
    for l1 in range(model.design_step, model.width + 1, model.design_step):
        if model.is_bytes:
            assert np.array_equal(reference_byte_gate(model, l1), lcp >= l1)
            continue
        gate, strict_lo, strict_hi, has_lo, has_hi = reference_gate_info(model, l1)
        assert np.array_equal(gate, lcp >= l1)
        assert (strict_hi <= strict_lo).all()
        shift = model.width - l1
        split = (model._empty_lo >> shift) != (model._empty_hi >> shift)
        assert np.array_equal(has_lo[split], model._empty_lo_lcp[split] >= l1)
        assert np.array_equal(has_hi[split], model._empty_hi_lcp[split] >= l1)


def check_two_pbf(keys, width, queries, max_probes):
    for bits_per_key in (1, 4, 16):
        registry = MetricsRegistry()
        model = CPFPRModel(keys, width, queries, max_probes, metrics=registry)
        total_bits = max(1, bits_per_key * len(model._keyset))
        design = design_two_pbf(model, total_bits, registry)
        expected, candidates, pruned, evaluations = reference_two_pbf_design(
            CPFPRModel(keys, width, queries, max_probes), total_bits
        )
        assert design == expected
        assert design.expected_fpr.hex() == expected.expected_fpr.hex()
        if candidates is None:
            continue  # too small a budget for two layers: the 1PBF search ran
        counters = registry.to_dict()["counters"]
        assert counters.get("design.candidates", 0) == candidates
        assert counters.get("design.pruned_dominated", 0) == pruned
        assert counters.get("cpfpr.evaluations", 0) == evaluations


def check_case(case, seed):
    keys, width, queries, max_probes = case
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            model = CPFPRModel(keys, width, queries, max_probes)
            check_gate(model)
            check_rows(model, random.Random(seed))
            check_designs(keys, width, queries, max_probes)


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

@SETTINGS
@given(case=int_cases(), seed=st.integers(0, 2**16))
def test_int_keys_match_per_candidate_evaluation(case, seed):
    check_case(case, seed)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=wide_cases(), seed=st.integers(0, 2**16))
def test_wide_keys_match_per_candidate_evaluation(case, seed):
    check_case(case, seed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=byte_cases(), seed=st.integers(0, 2**16))
def test_byte_keys_match_per_candidate_evaluation(case, seed):
    check_case(case, seed)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=long_byte_cases(), seed=st.integers(0, 2**16))
def test_long_byte_keys_match_per_candidate_evaluation(case, seed):
    check_case(case, seed)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(int_cases(), byte_cases()))
def test_two_pbf_search_matches_per_candidate_evaluation(case):
    check_two_pbf(*case)


def test_only_a_stored_boundary_block_is_probed():
    # Each query crosses the l1 = 4 block boundary at 16 and has a key on
    # one side only, so one boundary block is stored and one is not.
    for keys, query in (([20], (14, 19)), ([10], (12, 17))):
        model = CPFPRModel(keys, 8, [query])
        for l1 in range(8):
            lens = list(range(l1 + 1, 9))
            expected = [reference_fpr(model, l1, l2, 16) for l2 in lens]
            for backend in kernels.available_backends():
                with kernels.use_backend(backend):
                    row = model.proteus_fpr_row(l1, lens, 16)
                assert [v.hex() for v in row] == [v.hex() for v in expected], (keys, l1, backend)


def test_full_space_queries_at_width_63():
    # A full-space query spans 2**63 slots at l2 = 63, one past int64.
    width = 63
    keys = [0, 5, (1 << 62) + 3, (1 << 63) - 2]
    queries = [(0, (1 << 63) - 1), (1, 4), (6, (1 << 62)), ((1 << 63) - 1, (1 << 63) - 1)]
    for max_probes in (1, 2, 64):
        check_case((keys, width, queries, max_probes), 0)


def test_full_space_queries_at_width_64():
    # Stored width-64 keys: hi - lo of the full-space query wraps to -1 in
    # int64, and the clamp must still read it as 2**64 - 1 slots.
    width = 64
    top = (1 << 64) - 1
    keys = [0, 5, (1 << 63) - 1, 1 << 63, (1 << 63) + 7, top - 1]
    queries = [
        (0, top), (1, 4), (6, 1 << 62), ((1 << 63) + 1, (1 << 63) + 6),
        ((1 << 63) - 3, (1 << 63) + 3), (top, top), (1 << 62, top - 2),
    ]
    for max_probes in (1, 2, 64):
        check_case((keys, width, queries, max_probes), 0)


def test_churn_scale_designs_match():
    # One larger case per regime: 32-bit uniform keys under 1-1000-wide
    # ranges, as the write-churn benchmark designs them, and a clustered
    # 48-bit set where the trie branch wins.
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            churn_scale_designs()


def churn_scale_designs():
    rng = random.Random(7)
    keys = int_keys(rng, 32, 600, clustered=False)
    queries = []
    for _ in range(400):
        lo = rng.randint(0, (1 << 32) - 1002)
        queries.append((lo, lo + rng.randint(1, 1000)))
    check_rows(CPFPRModel(keys, 32, queries), rng)
    check_designs(keys, 32, queries, 64)
    keys = int_keys(rng, 48, 600, clustered=True)
    queries = [(k + 1, k + 1 + rng.randint(0, 64)) for k in rng.sample(keys, 300)]
    check_rows(CPFPRModel(keys, 48, queries), rng)
    check_designs(keys, 48, queries, 64)


def test_ycsb_scale_designs_match():
    # YCSB's shape at the scale one SST designs at: ~600 ``user`` + 10-digit
    # keys under scans of 1-100 ids.
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            ycsb_scale_designs()


def ycsb_scale_designs():
    rng = random.Random(5)
    keys = [user_key(i) for i in sorted(rng.sample(range(200_000), 600))]
    queries = []
    for _ in range(400):
        start = rng.randint(0, 200_100)
        queries.append((user_key(start), user_key(start + rng.randint(1, 100))))
    check_rows(CPFPRModel(keys, 8 * 14, queries), rng)
    check_designs(keys, 8 * 14, queries, 64)
