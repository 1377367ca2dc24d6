"""Scalar-vs-batched parity: the batched execution layer must be a pure
re-statement of the scalar reference paths.

Three layers of parity are pinned:

* every filter's ``may_intersect_many`` / ``may_contain_many`` (points are
  the ranges ``[k, k]``) equals a per-query reference — the oracle's
  bisection, SuRF's pointer trie, and the prefix Bloom, 2PBF, Proteus and
  Rosetta probes of ``tests/scalar_reference.py`` — at widths 32, 63, 64
  and 80 (wider integers take the byte path) and over byte keys; the
  scalar ``may_contain`` / ``may_intersect``, one-row batches, agree too;
* the numpy CPFPR model agrees with :class:`ScalarCPFPRModel`, the
  per-query reference kept here, to float-summation noise across a grid
  of design points;
* Algorithm 1 picks the *identical design point* through either model on
  seeded workloads (expected FPR may differ in the last ulps — the design
  fields must match exactly).

The per-key SuRF build (``tests/pointer_trie.py``) and Rosetta build are
references too, and the compaction merge is pinned to
``tests/scalar_reference.py``'s heap merge.

Since PR 7 the batched paths dispatch through ``repro.kernels``; the
filter-parity tests therefore run once per *available backend* (forced via
``kernels.use_backend``), and a dedicated cross-backend test pins that
every backend builds byte-identical structures, returns identical batch
answers, and leads Algorithm 1 to the identical design point.
"""

import random
from bisect import bisect_left, bisect_right
from functools import partial

import numpy as np
import pytest

import repro.kernels as kernels
from conftest import correlated_queries, mixed_queries, random_keys
from pointer_trie import fst_from_byte_trie, fst_payload, key_to_bytes, reference_surf_trie
from repro.amq.bloom import BloomFilter, bloom_fpr
from repro.api import FilterSpec, Workload, build_filter, registered_families
from repro.core.cpfpr import DEFAULT_MAX_PROBES, CPFPRModel
from repro.core.design import FilterDesign, design_one_pbf, design_proteus, design_two_pbf
from repro.core.prf import TwoPBF
from repro.core.proteus import Proteus
from repro.filters.base import TrieOracle
from repro.filters.prefix_bloom import PrefixBloomFilter, derived_prefix_len
from repro.filters.rosetta import Rosetta
from repro.filters.surf import SuRF
from repro.trie.size_model import fst_size_estimate
from repro.workloads.batch import QueryBatch, coerce_keys, coerce_query_batch
from repro.workloads.bytekeys import ByteQueryBatch
from scalar_reference import (
    merge_entry_runs_scalar,
    oracle_intersects,
    padded_int,
    pbf_point,
    pbf_range,
    proteus_point,
    proteus_range,
    query_set_lcp,
    rosetta_range,
    two_pbf_point,
    two_pbf_range,
    unique_prefix_counts,
)

WIDTH = 32
NUM_KEYS = 2000


# --------------------------------------------------------------------- #
# Scalar references                                                     #
# --------------------------------------------------------------------- #


class ScalarCPFPRModel:
    """The CPFPR model one empty query at a time, over the user's integers.

    The reference :class:`~repro.core.cpfpr.CPFPRModel`'s numpy passes
    restate: ``lcp(q, K)`` by bisection, the trie gate and its probe count
    by walking the stored ``l1``-prefixes inside each query, and one
    ``(1 - p)^k`` power per query.  It speaks the model interface Algorithm
    1 reads, so the design searches run on it unchanged.
    """

    design_step = 1
    metrics = None

    def __init__(self, keys, width, queries, max_probes=DEFAULT_MAX_PROBES):
        self.width = width
        self.max_probes = max_probes
        self.sorted_keys = sorted(set(keys))
        self.prefix_counts = unique_prefix_counts(self.sorted_keys, width)
        self.empty_queries = []
        for lo, hi in queries:
            lcp = query_set_lcp(self.sorted_keys, lo, hi, width)
            if lcp < width:
                self.empty_queries.append((lo, hi, lcp))
        self.num_empty_queries = len(self.empty_queries)
        histogram = [0] * (width + 1)
        for _, _, lcp in self.empty_queries:
            histogram[lcp] += 1
        self._lcp_at_least = [0] * (width + 2)
        for length in range(width, -1, -1):
            self._lcp_at_least[length] = self._lcp_at_least[length + 1] + histogram[length]
        self._tries: dict[int, list[int]] = {}

    def trie(self, l1):
        """The sorted distinct ``l1``-bit key prefixes (cached)."""
        if l1 not in self._tries:
            self._tries[l1] = sorted({key >> (self.width - l1) for key in self.sorted_keys})
        return self._tries[l1]

    def certain_fp_fraction(self, length):
        if not self.num_empty_queries:
            return 0.0
        return self._lcp_at_least[min(length, self.width + 1)] / self.num_empty_queries

    def bloom_probe_fpr(self, num_bits, length):
        return bloom_fpr(num_bits, self.prefix_counts[length])

    def proteus_fpr(self, l1, l2, bloom_bits):
        if l2 == 0:
            return self.certain_fp_fraction(l1)
        if not self.num_empty_queries:
            return 0.0
        width, cap = self.width, self.max_probes
        probe_fpr = self.bloom_probe_fpr(bloom_bits, l2)
        trie = self.trie(l1) if l1 else None
        total = 0.0
        for lo, hi, lcp in self.empty_queries:
            i = j = 0
            if trie is not None:
                i = bisect_left(trie, lo >> (width - l1))
                j = bisect_right(trie, hi >> (width - l1), lo=i)
                if i == j:
                    continue  # trie gate rejects: no stored l1-prefix in Q_l1
            if lcp >= l2:
                total += 1.0
                continue
            plo, phi = lo >> (width - l2), hi >> (width - l2)
            if phi - plo + 1 > cap:
                total += 1.0  # the filter gives up and answers True
                continue
            if trie is None:
                probes = phi - plo + 1
            else:
                # Only l2-prefixes under a stored l1-prefix are probed.
                gap = l2 - l1
                probes = 0
                for index in range(i, j):
                    child_lo = trie[index] << gap
                    child_hi = child_lo + (1 << gap) - 1
                    probes += min(phi, child_hi) - max(plo, child_lo) + 1
            total += 1.0 - (1.0 - probe_fpr) ** probes
        return total / self.num_empty_queries

    def proteus_fpr_row(self, l1, lens, bloom_bits):
        return [self.proteus_fpr(l1, l2, bloom_bits) for l2 in lens]

    def one_pbf_fpr(self, l2, bloom_bits):
        return self.proteus_fpr(0, l2, bloom_bits)

    def two_pbf_fpr(self, l1, l2, first_bits, second_bits, layers=None):
        # ``layers`` is the numpy model's per-search memo; every query is
        # recomputed here.
        if not self.num_empty_queries:
            return 0.0
        layers = [
            (length, self.width - length, self.bloom_probe_fpr(bits, length))
            for length, bits in ((l1, first_bits), (l2, second_bits))
        ]
        total = 0.0
        for lo, hi, lcp in self.empty_queries:
            passes = 1.0
            for length, shift, probe_fpr in layers:
                if lcp >= length:
                    continue
                slots = (hi >> shift) - (lo >> shift) + 1
                if slots <= self.max_probes:
                    passes *= 1.0 - (1.0 - probe_fpr) ** slots
            total += passes
        return total / self.num_empty_queries


def reference_rosetta_blooms(keys, width, total_bits, num_levels, seed):
    """Rosetta's per-level Bloom filters, one prefix ``add`` at a time."""
    sorted_keys = sorted(set(keys))
    counts = unique_prefix_counts(sorted_keys, width)
    levels = range(width - num_levels + 1, width + 1)
    weight_total = sum(counts[level] for level in levels) or 1
    blooms = {}
    for level in levels:
        level_bits = max(1, total_bits * counts[level] // weight_total)
        bloom = BloomFilter(level_bits, max(1, counts[level]), seed=seed + level)
        for prefix in sorted({key >> (width - level) for key in sorted_keys}):
            bloom.add(prefix)
        blooms[level] = bloom
    return blooms


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(71)
    keys = random_keys(rng, NUM_KEYS, WIDTH)
    queries = mixed_queries(rng, keys, 600, WIDTH)
    probes = keys[:200] + [rng.randrange(1 << WIDTH) for _ in range(400)]
    return keys, queries, probes


def _self_designed(family, keys, queries, bits_per_key=12.0, width=WIDTH):
    """Build a self-designing family through the registry protocol."""
    workload = Workload(keys, queries, width=width)
    return build_filter(FilterSpec(family, float(bits_per_key)), workload.keys, workload)


FILTER_FACTORIES = {
    "oracle": lambda keys, queries: TrieOracle(keys, WIDTH),
    "prefix_bloom": lambda keys, queries: PrefixBloomFilter(
        keys, WIDTH, prefix_len=16, num_bits=24_000
    ),
    "surf": lambda keys, queries: SuRF(keys, WIDTH),
    "rosetta": lambda keys, queries: Rosetta(
        keys, WIDTH, total_bits=32_000, num_levels=16
    ),
    "one_pbf": lambda keys, queries: _self_designed("1pbf", keys, queries),
    "two_pbf": lambda keys, queries: _self_designed("2pbf", keys, queries),
    "proteus": lambda keys, queries: _self_designed("proteus", keys, queries),
}


def _reference(filt, keys):
    """A filter's per-query reference: ``(point(key), range(lo, hi))``.

    ``keys`` are the filter's keys in its integer view (padded big-endian
    integers for byte keys), as are the probes the two functions take.
    """
    if isinstance(filt, TrieOracle):
        ordered = sorted(set(keys))
        return (
            lambda key: oracle_intersects(ordered, key, key),
            lambda lo, hi: oracle_intersects(ordered, lo, hi),
        )
    if isinstance(filt, SuRF):
        pointer = reference_surf_trie(keys, filt.width, filt.max_depth)
        return (
            lambda key: pointer.match_prefix_of(key_to_bytes(key, filt.width)) is not None,
            lambda lo, hi: pointer.range_overlaps(
                key_to_bytes(lo, filt.width), key_to_bytes(hi, filt.width)
            ),
        )
    if isinstance(filt, Rosetta):
        return lambda key: rosetta_range(filt, key, key), partial(rosetta_range, filt)
    if isinstance(filt, Proteus):
        return partial(proteus_point, filt), partial(proteus_range, filt)
    if isinstance(filt, TwoPBF):
        return partial(two_pbf_point, filt), partial(two_pbf_range, filt)
    assert isinstance(filt, PrefixBloomFilter)
    return partial(pbf_point, filt), partial(pbf_range, filt)


def _assert_matches_reference(filt, keys, probes, queries, point_batch, range_batch):
    """Batch answers equal the reference, and so do the one-row scalar probes."""
    point, overlaps = _reference(filt, keys)
    expected_points = [point(key) for key in probes]
    expected_ranges = [overlaps(lo, hi) for lo, hi in queries]
    name = type(filt).__name__
    assert point_batch.dtype == bool and point_batch.tolist() == expected_points, name
    assert range_batch.dtype == bool and range_batch.tolist() == expected_ranges, name
    assert [filt.may_contain(key) for key in probes[:50]] == expected_points[:50], name
    assert [
        filt.may_intersect(lo, hi) for lo, hi in queries[:50]
    ] == expected_ranges[:50], name


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
def test_filter_batch_equals_scalar_loop(name, backend, workload):
    keys, queries, probes = workload
    with kernels.use_backend(backend):
        filt = FILTER_FACTORIES[name](keys, queries)
        point_batch = filt.may_contain_many(np.array(probes, dtype=np.int64))
        range_batch = filt.may_intersect_many(QueryBatch.from_pairs(queries, WIDTH))
        _assert_matches_reference(filt, keys, probes, queries, point_batch, range_batch)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_hybrid_proteus_batch_equals_reference(backend):
    # The self-designed integer Proteus above is Bloom-only; this one has a
    # trie layer, and its queries straddle the start of a stored key's
    # l1-block, so they cover l2-slots under unstored l1-prefixes, which
    # the filter must skip.
    rng = random.Random(41)
    width, l1, l2 = 32, 16, 26
    keys = random_keys(rng, 2000, width)
    queries = mixed_queries(rng, keys, 300, width)
    for key in rng.sample(keys, 300):
        start = key >> (width - l1) << (width - l1)
        lo = max(0, start - 64 * rng.randrange(1, 40))
        queries.append((lo, start + 64 * rng.randrange(0, 20)))
    probes = keys[:200] + [rng.randrange(1 << width) for _ in range(200)]
    with kernels.use_backend(backend):
        filt = Proteus(keys, width, FilterDesign("proteus", l1, l2, 0, 3000, 0.0))
        point_batch = filt.may_contain_many(np.array(probes, dtype=np.int64))
        range_batch = filt.may_intersect_many(queries)
        _assert_matches_reference(filt, keys, probes, queries, point_batch, range_batch)


@pytest.fixture(scope="module")
def byte_workload():
    """A variable-length byte-string workload (bundled DBLP-style corpus)."""
    from repro.workloads import load_dataset

    workload = load_dataset("dblp", num_keys=1200, num_queries=400, seed=9)
    rng = random.Random(83)
    raw = workload.keys.as_list()
    probes = rng.sample(raw, 150) + [key[:-2] + b"zz" for key in rng.sample(raw, 150)]
    return workload, probes


#: Same families as FILTER_FACTORIES, but keyed by ByteKeySet workloads —
#: the fixed baselines coerce raw byte keys, the self-designing families
#: go through the registry (spec params default as in FILTER_FACTORIES).
BYTE_FILTER_FACTORIES = {
    "oracle": lambda wl: TrieOracle(wl.keys.keys, wl.width),
    "prefix_bloom": lambda wl: build_filter(
        FilterSpec("prefix_bloom", 12.0), wl.keys, wl
    ),
    "surf": lambda wl: build_filter(FilterSpec("surf", 12.0), wl.keys, wl),
    "rosetta": lambda wl: build_filter(FilterSpec("rosetta", 12.0), wl.keys, wl),
    "one_pbf": lambda wl: build_filter(FilterSpec("1pbf", 12.0), wl.keys, wl),
    "two_pbf": lambda wl: build_filter(FilterSpec("2pbf", 12.0), wl.keys, wl),
    "proteus": lambda wl: build_filter(FilterSpec("proteus", 12.0), wl.keys, wl),
}


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("name", sorted(BYTE_FILTER_FACTORIES))
def test_byte_filter_batch_equals_scalar_loop(name, backend, byte_workload):
    # Byte-mode parity: batched probes take raw byte strings (S-dtype rows);
    # the references speak the padded big-integer view.
    workload, probes = byte_workload
    width = workload.width
    with kernels.use_backend(backend):
        filt = BYTE_FILTER_FACTORIES[name](workload)
        point_batch = filt.may_contain_many(
            np.array(probes, dtype=workload.keys.keys.dtype)
        )
        range_batch = filt.may_intersect_many(workload.queries)
        _assert_matches_reference(
            filt,
            [padded_int(key, width) for key in workload.keys.as_list()],
            [padded_int(key, width) for key in probes],
            list(workload.queries.pairs()),
            point_batch,
            range_batch,
        )
        # Zero false negatives on the keys themselves, probed as raw bytes.
        assert filt.may_contain_many(workload.keys).all(), name


def _backend_snapshot(keys, queries, probes) -> dict:
    """Everything a kernel backend touches, reduced to comparable bytes."""
    point = np.array(probes, dtype=np.int64)
    batch = QueryBatch.from_pairs(queries, WIDTH)
    bloom = BloomFilter(20_000, len(keys), seed=5)
    bloom.add_many(np.array(keys, dtype=np.int64))
    surf = SuRF(keys, WIDTH)
    fst = surf.trie
    model = CPFPRModel(keys, WIDTH, queries)
    design = design_proteus(model, 12 * len(keys))
    proteus = Proteus(np.array(keys, dtype=np.int64), WIDTH, design)
    return {
        "bloom_bits": bloom.bits.to_bytes(),
        "bloom_answers": bloom.contains_many(point).tobytes(),
        "fst_dense": None if fst._dense is None else fst._dense.to_bytes(),
        "fst_sparse": None if fst._sparse is None else fst._sparse.to_bytes(),
        "surf_answers": surf.may_intersect_many(batch).tobytes(),
        "design": (
            design.kind, design.trie_depth, design.bloom_prefix_len,
            design.trie_bits, design.bloom_bits,
        ),
        "proteus_answers": proteus.may_intersect_many(batch).tobytes(),
    }


def test_every_backend_is_bit_identical_to_numpy(workload):
    # The registry contract: numpy defines kernel semantics; a compiled
    # backend may only be faster, never different — in stored filter bytes,
    # in batch answers, or in the design point Algorithm 1 lands on.
    keys, queries, probes = workload
    with kernels.use_backend("numpy"):
        reference = _backend_snapshot(keys, queries, probes)
    for backend in kernels.available_backends():
        if backend == "numpy":
            continue
        with kernels.use_backend(backend):
            snapshot = _backend_snapshot(keys, queries, probes)
        for field, expected in reference.items():
            assert snapshot[field] == expected, (backend, field)


def test_batch_accepts_plain_pair_iterables(workload):
    keys, queries, _ = workload
    filt = PrefixBloomFilter(keys, WIDTH, prefix_len=16, num_bits=24_000)
    from_pairs = filt.may_intersect_many(queries)
    from_batch = filt.may_intersect_many(QueryBatch.from_pairs(queries, WIDTH))
    assert (from_pairs == from_batch).all()


def test_empty_filter_batch_answers():
    filt = PrefixBloomFilter([], WIDTH, prefix_len=16, num_bits=1024)
    assert not filt.may_contain_many([1, 2, 3]).any()
    assert not filt.may_intersect_many([(0, 5), (9, 9)]).any()
    oracle = TrieOracle([], WIDTH)
    assert not oracle.may_intersect_many([(0, (1 << WIDTH) - 1)]).any()


def test_one_pbf_wide_space_batch_takes_encoded_keys():
    # Regression: a batch fallback once routed already-encoded keys back
    # through OnePBF.may_contain, which re-encodes raw keys — double
    # encoding crashed or produced false negatives.
    words = ["strawberry-fields", "marmalade-skies", "tangerine-trees"]
    width = 8 * max(len(word) for word in words)
    # Build from the padded integers: they are wider than 64 bits, so they
    # coerce to byte keys and byte query bounds.
    encoded = [padded_int(word, width) for word in words]
    raw_queries = [("tang", "tanh"), ("a", "b")]
    int_queries = [(padded_int(lo, width), padded_int(hi, width)) for lo, hi in raw_queries]
    workload = Workload(encoded, int_queries, width=width)
    assert isinstance(workload.queries, ByteQueryBatch) and workload.keys.is_bytes
    filt = build_filter(FilterSpec("1pbf", 16.0), workload.keys, workload)
    assert filt.may_contain_many(encoded).tolist() == [
        pbf_point(filt, key) for key in encoded
    ]
    assert filt.may_contain_many(encoded).all()
    # Integer bounds, raw byte bounds and their scalar probes must all
    # answer as the reference, query for query.
    batch = coerce_query_batch(raw_queries, width)
    assert isinstance(batch, ByteQueryBatch) and list(batch.pairs()) == int_queries
    expected = [pbf_range(filt, lo, hi) for lo, hi in int_queries]
    assert filt.may_intersect_many(batch).tolist() == expected
    assert filt.may_intersect_many(int_queries).tolist() == expected
    assert [filt.may_intersect(lo, hi) for lo, hi in raw_queries] == expected


def test_width_63_full_space_query_does_not_overflow():
    # Regression: the slot count (span + 1) of the full-space query in a
    # 63-bit space overflowed int64, crashing the batched path where the
    # scalar path returned the clamped conservative True.
    width = 63
    top = (1 << width) - 1
    keys = [5, 1000, 1 << 62]
    full_space = [(0, top), (1, top - 1)]
    pbf = PrefixBloomFilter(keys, width, prefix_len=width, num_bits=4096)
    assert pbf.may_intersect_many(full_space).tolist() == [
        pbf_range(pbf, lo, hi) for lo, hi in full_space
    ]
    proteus = _self_designed(
        "proteus", keys, full_space + [(7, 9)], bits_per_key=16, width=width
    )
    assert proteus.may_intersect_many(full_space).tolist() == [
        proteus_range(proteus, lo, hi) for lo, hi in full_space
    ]
    assert proteus.may_contain_many(keys).all()
    model = CPFPRModel(keys, width, full_space + [(7, 9)])
    scalar = ScalarCPFPRModel(keys, width, full_space + [(7, 9)])
    assert model.proteus_fpr(0, width, 4096) == pytest.approx(
        scalar.proteus_fpr(0, width, 4096), abs=1e-12
    )
    assert model.two_pbf_fpr(1, width, 2048, 2048) == pytest.approx(
        scalar.two_pbf_fpr(1, width, 2048, 2048), abs=1e-12
    )
    # The fixed PBF sizes its slots to the widest query, which spans the
    # whole space: 2**63 keys at width 63, 2**64 at width 64.
    assert derived_prefix_len(width, Workload(coerce_keys(keys, width), full_space)) == 1
    full_64 = [(0, (1 << 64) - 1), (5, 9)]
    assert derived_prefix_len(64, Workload(coerce_keys(keys, 64), full_64)) == 1


def test_wide_key_space_batch_equals_scalar_loop():
    # Width 64 rides int64 as `key - 2**63`, and 80-bit keys take the byte
    # path; every family's batch answers still equal the references over
    # the user's integers, edge keys and the full-space query included.
    rng = random.Random(29)
    for width in (64, 80):
        top = (1 << width) - 1
        base = 1 << (width - 1)
        keys = sorted(
            set(random_keys(rng, 200, width))
            | {base + 7 * i for i in range(100)}
            | {0, 3, base - 1, base, top - 1, top}
        )
        queries = mixed_queries(rng, keys, 150, width) + [
            (0, top), (1, top - 1), (base - 2, base + 2), (top - 5, top)
        ]
        probes = keys[:80] + [rng.getrandbits(width) for _ in range(80)] + [0, top]
        workload = Workload(keys, queries, width=width)
        assert workload.keys.is_bytes == (width > 64)
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                for name in registered_families():
                    filt = build_filter(FilterSpec(name, 12.0), workload.keys, workload)
                    point_batch = filt.may_contain_many(probes)
                    range_batch = filt.may_intersect_many(workload.queries)
                    _assert_matches_reference(
                        filt, keys, probes, queries, point_batch, range_batch
                    )
                    assert filt.may_contain_many(workload.keys).all(), (width, name)


def test_surf_vectorised_build_is_bit_identical(workload):
    # The numpy LCP/depth computation + the kernel-backed bulk build must
    # produce the succinct payload of the scalar per-key loop's pruned
    # pointer trie, encoded node by node, at every depth cap.
    keys, queries, probes = workload
    for max_depth in (None, 2, 3):
        bulk = SuRF(keys, WIDTH, max_depth)
        scalar = reference_surf_trie(keys, WIDTH, max_depth)
        assert fst_payload(bulk.trie) == fst_payload(fst_from_byte_trie(scalar)), max_depth
        assert bulk.trie_height() == scalar.height
        assert bulk.num_keys == len(set(keys))
        assert bulk.size_in_bits() == fst_size_estimate(*scalar.level_counts()), max_depth


def test_surf_non_byte_width_vectorised_build_matches_scalar():
    # The MSB-pad arithmetic lives in both build paths; a 9-bit width (7
    # pad bits) is where they would drift first.
    keys = [0, 64, 65, 300]
    bulk = SuRF(keys, width=9)
    reference = fst_from_byte_trie(reference_surf_trie(keys, 9))
    assert fst_payload(bulk.trie) == fst_payload(reference)


def test_rosetta_vectorised_build_is_bit_identical(workload):
    # The bulk construction must produce byte-for-byte the same Bloom
    # contents as a per-prefix build through the scalar hash, level by level.
    keys, _, _ = workload
    bulk = Rosetta(keys, WIDTH, total_bits=32_000, num_levels=12, seed=9)
    scalar = reference_rosetta_blooms(keys, WIDTH, 32_000, 12, seed=9)
    assert sorted(bulk._blooms) == sorted(scalar)
    for level, bloom in bulk._blooms.items():
        reference = scalar[level]
        assert bloom.num_bits == reference.num_bits, level
        assert bloom.num_hashes == reference.num_hashes, level
        assert bloom.bits.to_bytes() == reference.bits.to_bytes(), level


def test_rosetta_wide_key_space_build_falls_back():
    # 80-bit keys fall back to the byte path, which must build (and
    # answer) correctly.
    width = 80
    keys = [1 << 70, (1 << 70) + 5, 3, 1 << 79]
    filt = Rosetta(keys, width, total_bits=4096, num_levels=8)
    assert all(filt.may_contain(key) for key in keys)
    assert filt.may_intersect(0, 10)


class TestBatchValidationParity:
    """A malformed batch is rejected when it is built, and the vectorised
    fast paths reject malformed pairs, with the same ValueErrors as the
    scalar ``may_intersect``."""

    @pytest.fixture(scope="class")
    def filt(self, workload):
        keys, _, _ = workload
        return PrefixBloomFilter(keys, WIDTH, prefix_len=16, num_bits=24_000)

    def _scalar_message(self, filt, lo, hi):
        with pytest.raises(ValueError) as excinfo:
            filt.may_intersect(lo, hi)
        return str(excinfo.value)

    def test_empty_range_rejected_identically(self, filt):
        lo, hi = 500, 20
        with pytest.raises(ValueError) as excinfo:
            QueryBatch([0, lo], [5, hi], WIDTH)
        assert str(excinfo.value) == self._scalar_message(filt, lo, hi)

    def test_out_of_width_rejected_identically(self, filt):
        lo, hi = 7, 1 << WIDTH
        with pytest.raises(ValueError) as excinfo:
            QueryBatch([lo], [hi], WIDTH)
        assert str(excinfo.value) == self._scalar_message(filt, lo, hi)

    def test_width_64_batch_rejected_identically(self, workload):
        # Stored bounds keep the user's order, and errors name the user's
        # values, not the stored ones.
        width = 64
        filt = PrefixBloomFilter([3, 1 << 63], width, prefix_len=40, num_bits=4096)
        lo, hi = (1 << 63) + 9, 5
        with pytest.raises(ValueError) as excinfo:
            QueryBatch([0, lo], [1, hi], width)
        assert str(excinfo.value) == self._scalar_message(filt, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(5, 3), (0, 1 << 80)])
    def test_wide_int_pairs_rejected_identically(self, lo, hi):
        # 80-bit integer bounds become bytes, but errors name the integers.
        filt = PrefixBloomFilter([3, 1 << 70], 80, prefix_len=40, num_bits=4096)
        with pytest.raises(ValueError) as excinfo:
            filt.may_intersect_many([(0, 5), (lo, hi)])
        assert str(excinfo.value) == self._scalar_message(filt, lo, hi)

    def test_mixed_defect_batch_reports_first_offender(self, filt):
        # Query 0 is out of width, query 1 is inverted: the scalar loop
        # dies on query 0's defect, so the batch path must as well.
        with pytest.raises(ValueError) as excinfo:
            QueryBatch([0, 5], [1 << WIDTH, 2], WIDTH)
        assert str(excinfo.value) == self._scalar_message(filt, 0, 1 << WIDTH)


class TestMergeRunsParity:
    """The compaction merge fast path (one concatenate + lexsort dedupe via
    the ``merge_runs`` kernel) must equal the ``heapq.merge`` scalar
    reference — same keys, same surviving tombstones, under every backend,
    for stored width-64 keys and for wider integers on the byte path."""

    def _seeded_runs(self, rng, width, num_runs=5):
        from repro.lsm.merge import EntryRun

        runs = []
        shift = max(0, width - 16)  # spread 16-bit draws over the whole space
        for _ in range(num_runs):
            keys = sorted(rng.sample(range(1 << min(width, 16)), rng.randrange(1, 400)))
            tombstones = [rng.random() < 0.3 for _ in keys]
            key_set = coerce_keys([key << shift for key in keys], width)
            runs.append(EntryRun(key_set, np.array(tombstones)))
        return runs

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("drop", [False, True])
    def test_fast_path_equals_heap_reference(self, backend, drop):
        from repro.lsm.merge import merge_entry_runs

        rng = random.Random(76)
        for trial in range(5):
            runs = self._seeded_runs(rng, WIDTH)
            with kernels.use_backend(backend):
                fast = merge_entry_runs(runs, drop_tombstones=drop)
            slow = merge_entry_runs_scalar(runs, drop_tombstones=drop)
            assert fast.keys.as_list() == slow.keys.as_list(), (backend, trial)
            assert (
                fast.tombstone_mask().tolist() == slow.tombstone_mask().tolist()
            ), (backend, trial)

    @pytest.mark.parametrize("width", [64, 80])
    def test_wide_key_spaces_equal_the_heap_reference(self, width):
        from repro.lsm.merge import merge_entry_runs

        rng = random.Random(77)
        runs = self._seeded_runs(rng, width=width, num_runs=3)
        assert runs[0].keys.is_bytes == (width > 64)
        fast = merge_entry_runs(runs)
        slow = merge_entry_runs_scalar(runs)
        assert fast.keys.as_list() == slow.keys.as_list()
        assert fast.tombstone_mask().tolist() == slow.tombstone_mask().tolist()

    def test_merge_sorted_equals_heapq_over_plain_lists(self):
        import heapq

        from repro.lsm.sstable import SSTable
        from repro.workloads.batch import EncodedKeySet

        rng = random.Random(78)
        lists = [
            sorted(rng.sample(range(1 << 16), rng.randrange(1, 300)))
            for _ in range(4)
        ]
        merged = SSTable.merge_sorted(
            [EncodedKeySet(keys, WIDTH) for keys in lists]
        )
        reference = sorted(set(heapq.merge(*lists)))
        assert merged.as_list() == reference


def test_bloom_bulk_equals_scalar(workload):
    keys, _, probes = workload
    scalar = BloomFilter(20_000, len(keys), seed=5)
    bulk = BloomFilter(20_000, len(keys), seed=5)
    for key in keys:
        scalar.add(key)
    bulk.add_many(np.array(keys, dtype=np.int64))
    assert scalar.bits.to_bytes() == bulk.bits.to_bytes()
    assert scalar.inserted_items == bulk.inserted_items
    answers = bulk.contains_many(np.array(probes, dtype=np.int64))
    assert list(answers) == [scalar.contains(key) for key in probes]


class TestModelParity:
    @pytest.fixture(scope="class")
    def models(self):
        rng = random.Random(72)
        keys = random_keys(rng, 3000, WIDTH)
        queries = mixed_queries(rng, keys, 800, WIDTH)
        return CPFPRModel(keys, WIDTH, queries), ScalarCPFPRModel(keys, WIDTH, queries)

    def test_preprocessing_identical(self, models):
        vector, scalar = models
        assert vector.empty_queries == scalar.empty_queries
        assert vector.prefix_counts == scalar.prefix_counts
        assert vector._lcp_at_least == scalar._lcp_at_least

    def test_proteus_fpr_grid(self, models):
        vector, scalar = models
        for l1 in range(0, WIDTH, 4):
            for l2 in range(l1 + 1, WIDTH + 1, 3):
                a = vector.proteus_fpr(l1, l2, 30_000)
                b = scalar.proteus_fpr(l1, l2, 30_000)
                assert a == pytest.approx(b, abs=1e-12), (l1, l2)
            assert vector.proteus_fpr(l1, 0, 0) == pytest.approx(
                scalar.proteus_fpr(l1, 0, 0), abs=1e-12
            )

    def test_two_pbf_fpr_grid(self, models):
        vector, scalar = models
        for l1 in (1, 4, 8, 16):
            for l2 in (l1 + 1, l1 + 8, WIDTH):
                if l2 > WIDTH:
                    continue
                a = vector.two_pbf_fpr(l1, l2, 15_000, 15_000)
                b = scalar.two_pbf_fpr(l1, l2, 15_000, 15_000)
                assert a == pytest.approx(b, abs=1e-12), (l1, l2)


def _same_design_point(a, b):
    return (
        a.kind == b.kind
        and a.trie_depth == b.trie_depth
        and a.bloom_prefix_len == b.bloom_prefix_len
        and a.trie_bits == b.trie_bits
        and a.bloom_bits == b.bloom_bits
    )


@pytest.mark.parametrize("seed", [73, 74, 75])
@pytest.mark.parametrize("family", ["mixed", "correlated"])
def test_algorithm1_identical_design_through_either_model(seed, family):
    rng = random.Random(seed)
    keys = random_keys(rng, 2500, WIDTH)
    if family == "mixed":
        queries = mixed_queries(rng, keys, 500, WIDTH)
    else:
        queries = correlated_queries(rng, keys, 500, WIDTH)
    vector = CPFPRModel(keys, WIDTH, queries)
    scalar = ScalarCPFPRModel(keys, WIDTH, queries)
    budget = 30_000
    for search in (design_proteus, design_one_pbf, design_two_pbf):
        via_vector = search(vector, budget)
        via_scalar = search(scalar, budget)
        assert _same_design_point(via_vector, via_scalar), (
            search.__name__,
            via_vector,
            via_scalar,
        )
        assert via_vector.expected_fpr == pytest.approx(
            via_scalar.expected_fpr, abs=1e-12
        )
