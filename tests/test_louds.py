"""Physical succinct tries: LOUDS navigation, sizes and integration.

Four layers of guarantees are pinned here:

* **navigation** — FastSuccinctTrie answers point and range probes exactly
  like the pointer ``ByteTrie`` (``tests/pointer_trie.py``) it encodes,
  across every dense/sparse cutoff, including the edge cases (empty trie,
  single key, all-keys-share-prefix, cutoff boundary) and rank/select
  round-trips;
* **build** — the vectorised uniform-prefix bulk build is byte-identical
  to the node-by-node encoding of the pointer trie;
* **size** — measured footprints bracket the size model's prediction
  within the documented tolerance (and hit it exactly at the pinned
  layouts);
* **integration** — SuRF answers identically to the pruned pointer trie
  of its reference build, with zero false negatives, and
  ``FSTPrefixIndex`` answers as the ``SortedPrefixIndex`` Proteus queries.
"""

import random

import numpy as np
import pytest

from conftest import clustered_keys, mixed_queries, random_keys, zipf_keys
from pointer_trie import ByteTrie, fst_from_byte_trie, key_to_bytes, reference_surf_trie
from repro.api import FilterSpec, Workload, build_filter
from repro.filters.base import TrieOracle
from repro.filters.surf import SuRF
from repro.trie.bitvector import RankSelectBitVector
from repro.trie.fst import FastSuccinctTrie, FSTPrefixIndex
from repro.trie.size_model import (
    DENSE_BITS_PER_NODE,
    SPARSE_BITS_PER_EDGE,
    fst_prefix_cutoff,
    fst_size_estimate,
)
from repro.trie.sorted_index import SortedPrefixIndex
from repro.workloads.batch import QueryBatch, encode_ints

WIDTH = 32

#: Documented measured/predicted slack, mirrored from
#: repro.evaluation.size_check.DEFAULT_TOLERANCE.
SIZE_TOLERANCE = 0.10


def _assert_matches_byte_trie(trie, fst, rng, width_bytes, samples=300):
    top = (1 << (8 * width_bytes)) - 1
    for _ in range(samples):
        key = rng.randrange(top + 1)
        encoded = key.to_bytes(width_bytes, "big")
        assert fst.match_prefix_of(encoded) == (
            trie.match_prefix_of(encoded) is not None
        ), encoded
        lo = rng.randrange(top)
        hi = min(top, lo + rng.randrange(1, 4096))
        lo_b, hi_b = lo.to_bytes(width_bytes, "big"), hi.to_bytes(width_bytes, "big")
        assert fst.range_overlaps(lo_b, hi_b) == trie.range_overlaps(lo_b, hi_b), (
            lo,
            hi,
        )


def _assert_surf_matches_pointer_trie(keys, queries, max_depth, rng):
    """SuRF answers as the per-key pruned pointer trie, with zero false negatives."""
    surf = SuRF(keys, WIDTH, max_depth)
    pointer = reference_surf_trie(keys, WIDTH, max_depth)
    truth = TrieOracle(keys, WIDTH).may_intersect_many(QueryBatch.from_pairs(queries, WIDTH))
    answers = surf.may_intersect_many(QueryBatch.from_pairs(queries, WIDTH))
    assert not (~answers & truth).any()
    expected = [
        pointer.range_overlaps(key_to_bytes(lo, WIDTH), key_to_bytes(hi, WIDTH))
        for lo, hi in queries
    ]
    assert answers.tolist() == expected
    assert [surf.may_intersect(lo, hi) for lo, hi in queries[:150]] == expected[:150]
    assert surf.may_contain_many(np.array(keys, dtype=np.int64)).all()
    probes = keys[:100] + [rng.randrange(1 << WIDTH) for _ in range(200)]
    expected = [
        pointer.match_prefix_of(key_to_bytes(key, WIDTH)) is not None for key in probes
    ]
    assert surf.may_contain_many(np.array(probes, dtype=np.int64)).tolist() == expected
    assert [surf.may_contain(key) for key in probes] == expected


class TestRankSelect:
    def test_rank1_many_matches_scalar(self):
        rng = random.Random(31)
        bits = [rng.random() < 0.35 for _ in range(1037)]  # non-byte-aligned
        vector = RankSelectBitVector(bits)
        indices = np.arange(-3, len(bits) + 5)
        batch = vector.rank1_many(indices)
        assert list(batch) == [vector.rank1(int(i)) for i in indices]

    def test_select_rank_round_trip(self):
        rng = random.Random(32)
        bits = [rng.random() < 0.2 for _ in range(900)]
        vector = RankSelectBitVector(bits)
        for position, bit in enumerate(bits):
            if bit:
                # select1 of the rank *through* a set bit lands back on it.
                assert vector.select1(vector.rank1(position + 1)) == position
        for rank in range(1, vector.count_ones() + 1):
            position = vector.select1(rank)
            assert vector.get(position)
            assert vector.rank1(position + 1) == rank

    def test_get_many_matches_scalar(self):
        bits = [True, False, True, True, False, False, True]
        vector = RankSelectBitVector(bits)
        assert list(vector.get_many(np.arange(len(bits)))) == bits


class TestLoudsNavigation:
    @pytest.mark.parametrize("cutoff", [None, 0, "height"])
    def test_matches_byte_trie_brute_force(self, cutoff):
        rng = random.Random(41)
        width_bytes = 3
        prefixes = {
            bytes(rng.randrange(5) for _ in range(rng.randrange(1, width_bytes + 1)))
            for _ in range(80)
        }
        trie = ByteTrie(prefixes)
        resolved = trie.height if cutoff == "height" else cutoff
        fst = fst_from_byte_trie(trie, resolved)
        if resolved is not None:
            assert fst.cutoff == resolved
        assert len(fst) == trie.num_leaves
        _assert_matches_byte_trie(trie, fst, rng, width_bytes)

    def test_empty_trie(self):
        fst = fst_from_byte_trie(ByteTrie())
        assert len(fst) == 0 and fst.height == 0
        assert fst.size_in_bits() == 0
        assert not fst.match_prefix_of(b"\x00")
        assert not fst.range_overlaps(b"\x00", b"\xff")
        assert not fst.may_contain_many(np.array([0, 7], dtype=np.int64), 1).any()
        assert not fst.may_intersect_many(
            np.array([0], dtype=np.int64), np.array([255], dtype=np.int64), 1
        ).any()
        empty_bulk = FastSuccinctTrie.from_uniform_prefixes(
            np.zeros(0, dtype=np.int64), 4
        )
        assert len(empty_bulk) == 0 and empty_bulk.size_in_bits() == 0

    def test_single_key(self):
        fst = FastSuccinctTrie.from_prefixes([b"\x12\x34\x56"])
        # A lone 3-byte chain: sparse wins every level (10 < 512 bits).
        assert fst.cutoff == 0
        assert fst.size_in_bits() == 3 * SPARSE_BITS_PER_EDGE
        assert fst.match_prefix_of(b"\x12\x34\x56\x99")
        assert not fst.match_prefix_of(b"\x12\x34\x57")
        assert not fst.match_prefix_of(b"\x12\x34")  # key shorter than prefix
        assert fst.range_overlaps(b"\x12\x34\x00", b"\x12\x34\xff")
        assert not fst.range_overlaps(b"\x12\x35\x00", b"\x12\xff\xff")

    def test_all_keys_share_prefix(self):
        # Every key under one byte prefix: level 1 is a single edge, the
        # branching happens below — exercises deep sparse chains and the
        # dense/sparse crossing in one structure.
        rng = random.Random(43)
        keys = sorted({(0xAB << 16) | rng.randrange(1 << 8) for _ in range(64)})
        prefixes = [int(k).to_bytes(3, "big") for k in keys]
        trie = ByteTrie(prefixes)
        for cutoff in (0, 1, 2, 3):
            fst = fst_from_byte_trie(trie, cutoff)
            _assert_matches_byte_trie(trie, fst, rng, 3, samples=200)

    def test_cutoff_boundary_sizes(self):
        # 2-level trie, explicit cutoffs: measured size must be exactly the
        # per-level dense/sparse charge for that layout.
        trie = ByteTrie([b"aa", b"ab", b"b"])
        edges, internal = trie.level_counts()
        assert edges == [2, 2]
        for cutoff in (0, 1, 2):
            fst = fst_from_byte_trie(trie, cutoff)
            expected = sum(
                DENSE_BITS_PER_NODE * internal[level]
                if level < cutoff
                else SPARSE_BITS_PER_EDGE * edges[level]
                for level in range(len(edges))
            )
            assert fst.size_in_bits() == expected, cutoff
            breakdown = fst.size_breakdown()
            assert breakdown["dense"] + breakdown["sparse"] == expected
        with pytest.raises(ValueError):
            fst_from_byte_trie(trie, 3)

    def test_default_cutoff_minimises_over_prefixes(self):
        rng = random.Random(44)
        keys = random_keys(rng, 800, WIDTH)
        trie = ByteTrie(key_to_bytes(k, WIDTH) for k in keys)
        edges, internal = trie.level_counts()
        cutoff, total = fst_prefix_cutoff(edges, internal)
        fst = fst_from_byte_trie(trie)
        assert fst.cutoff == cutoff
        assert fst.size_in_bits() == total
        assert fst_size_estimate(edges, internal) <= total
        others = [
            fst_from_byte_trie(trie, c).size_in_bits()
            for c in range(len(edges) + 1)
        ]
        assert total == min(others)

    def test_batched_probes_match_scalar(self):
        rng = random.Random(45)
        keys = sorted({rng.randrange(1 << WIDTH) for _ in range(500)})
        fst = FastSuccinctTrie.from_uniform_prefixes(
            np.array(keys, dtype=np.int64), 4
        )
        probes = np.array(
            keys[:100] + [rng.randrange(1 << WIDTH) for _ in range(400)],
            dtype=np.int64,
        )
        scalar = [fst.match_prefix_of(int(k).to_bytes(4, "big")) for k in probes]
        assert list(fst.may_contain_many(probes, 4)) == scalar
        los, his = [], []
        for _ in range(400):
            lo = rng.randrange(1 << WIDTH)
            his.append(min((1 << WIDTH) - 1, lo + rng.randrange(1, 100_000)))
            los.append(lo)
        los = np.array(los, dtype=np.int64)
        his = np.array(his, dtype=np.int64)
        scalar = [
            fst.range_overlaps(int(lo).to_bytes(4, "big"), int(hi).to_bytes(4, "big"))
            for lo, hi in zip(los, his)
        ]
        assert list(fst.may_intersect_many(los, his, 4)) == scalar


class TestBulkBuild:
    @pytest.mark.parametrize("num_bytes", [1, 2, 4])
    def test_uniform_bulk_build_is_byte_identical(self, num_bytes):
        rng = random.Random(46)
        space = 1 << (8 * num_bytes)
        values = np.unique(
            np.array([rng.randrange(space) for _ in range(700)], dtype=np.int64)
        )
        reference_trie = ByteTrie(
            int(v).to_bytes(num_bytes, "big") for v in values.tolist()
        )
        for cutoff in (None, 0, num_bytes):
            bulk = FastSuccinctTrie.from_uniform_prefixes(values, num_bytes, cutoff)
            reference = fst_from_byte_trie(reference_trie, cutoff)
            assert bulk.cutoff == reference.cutoff
            assert bulk.size_in_bits() == reference.size_in_bits()
            assert (bulk._dense is None) == (reference._dense is None)
            if bulk._dense is not None:
                assert bulk._dense.to_bytes() == reference._dense.to_bytes()
            assert (bulk._sparse is None) == (reference._sparse is None)
            if bulk._sparse is not None:
                assert bulk._sparse.to_bytes() == reference._sparse.to_bytes()
                assert bulk._sparse.num_roots == reference._sparse.num_roots


class TestEncoderValidation:
    def test_dense_bitmap_sizes_checked(self):
        from repro.amq.bitarray import BitArray
        from repro.trie.louds_dense import LoudsDenseTrie

        with pytest.raises(ValueError, match="256 bits per node"):
            LoudsDenseTrie(BitArray(256), BitArray(512), 2)
        with pytest.raises(ValueError, match="non-negative"):
            LoudsDenseTrie(BitArray(0), BitArray(0), -1)

    def test_sparse_invariants_checked(self):
        from repro.amq.bitarray import BitArray
        from repro.trie.louds_sparse import LoudsSparseTrie

        labels = np.array([5, 7], dtype=np.uint8)
        with pytest.raises(ValueError, match="parallel"):
            LoudsSparseTrie(labels, BitArray(1), BitArray(2), 1)
        no_first = BitArray(2)
        with pytest.raises(ValueError, match="open a node"):
            LoudsSparseTrie(labels, BitArray(2), no_first, 1)
        first = BitArray(2)
        first.set(0)
        with pytest.raises(ValueError, match="non-negative"):
            LoudsSparseTrie(labels, BitArray(2), first, -1)
        descending = np.array([7, 5], dtype=np.uint8)
        with pytest.raises(ValueError, match="strictly increasing"):
            LoudsSparseTrie(descending, BitArray(2), first, 1)
        # Degenerate but legal: zero edges.
        empty = LoudsSparseTrie(
            np.zeros(0, dtype=np.uint8), BitArray(0), BitArray(0), 0
        )
        exists, _, _ = empty.probe_many(
            np.array([0], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        assert not exists.any()
        assert empty.size_in_bits() == 0

    def test_uniform_bulk_build_validates_inputs(self):
        with pytest.raises(ValueError, match="byte length"):
            FastSuccinctTrie.from_uniform_prefixes(np.array([1], dtype=np.int64), 0)
        with pytest.raises(ValueError, match="cutoff"):
            FastSuccinctTrie.from_uniform_prefixes(
                np.array([1], dtype=np.int64), 2, cutoff=3
            )

    def test_rank1_many_on_empty_vector(self):
        vector = RankSelectBitVector([])
        assert list(vector.rank1_many(np.array([0, 5]))) == [0, 0]


class TestFSTPrefixIndex:
    def test_matches_sorted_index_brute_force(self):
        rng = random.Random(47)
        width, length = 24, 10
        keys = [rng.randrange(1 << width) for _ in range(400)]
        stored = {key >> (width - length) for key in keys}
        reference = SortedPrefixIndex.from_keys(keys, length, width)
        succinct = FSTPrefixIndex.from_keys(
            np.array(keys, dtype=np.int64), length, width
        )
        assert len(reference) == len(succinct) == len(stored)
        every_prefix = np.arange(1 << length, dtype=np.int64)
        assert succinct.contains_many(every_prefix).tolist() == [
            prefix in stored for prefix in range(1 << length)
        ]
        probes = [rng.randrange(1 << width) for _ in range(300)]
        assert succinct.contains_many(
            np.array(probes, dtype=np.int64) >> (width - length)
        ).tolist() == [key >> (width - length) in stored for key in probes]
        prefixes = np.array(
            [rng.randrange(1 << length) for _ in range(300)], dtype=np.int64
        )
        assert (
            succinct.contains_many(prefixes) == reference.contains_many(prefixes)
        ).all()
        # Each query draws its own span, so short spans (both bounds in one
        # l-block) and long ones (crossing many blocks) both occur.
        los = np.array([rng.randrange(1 << width) for _ in range(300)], dtype=np.int64)
        spans = np.array([rng.randrange(1, 50_000) for _ in range(300)], dtype=np.int64)
        his = np.minimum((1 << width) - 1, los + spans)
        shift = width - length
        assert succinct.overlaps_many(los, his).tolist() == [
            any(lo >> shift <= p <= hi >> shift for p in stored)
            for lo, hi in zip(los.tolist(), his.tolist())
        ]
        assert (
            succinct.overlaps_many(los, his) == reference.overlaps_many(los, his)
        ).all()
        los = np.array([rng.randrange(1 << width) for _ in range(300)], dtype=np.int64)
        his = np.minimum((1 << width) - 1, los + 9999)
        assert (
            succinct.overlaps_many(los, his) == reference.overlaps_many(los, his)
        ).all()

    def test_wide_key_space_falls_back(self):
        # Width 64 stores keys and prefixes as int64 less 2**(l - 1); both
        # indexes take those and agree with brute force over the user's
        # integers, up to l = 64.
        user = [0, 3, (1 << 63) - 1, 1 << 63, (1 << 63) + 5, (1 << 64) - 1]
        keys = encode_ints(user, 64)
        bounds = [
            (0, 10), (1 << 62, 1 << 63), ((1 << 63) + 6, (1 << 64) - 2), (0, (1 << 64) - 1)
        ]
        los = encode_ints([lo for lo, _ in bounds], 64)
        his = encode_ints([hi for _, hi in bounds], 64)
        for length in (1, 7, 63, 64):
            reference = SortedPrefixIndex.from_keys(keys, length, 64)
            succinct = FSTPrefixIndex.from_keys(keys, length, 64)
            shift = 64 - length
            stored = {key >> shift for key in user}
            assert len(reference) == len(succinct) == len(stored)
            expected = [
                any(lo >> shift <= p <= hi >> shift for p in stored) for lo, hi in bounds
            ]
            assert succinct.overlaps_many(los, his).tolist() == expected
            assert reference.overlaps_many(los, his).tolist() == expected
            prefixes = keys >> np.int64(shift)
            assert succinct.contains_many(prefixes).all()
            assert reference.contains_many(prefixes).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            FSTPrefixIndex([4], length=2, width=8)  # 4 needs 3 bits
        with pytest.raises(ValueError):
            FSTPrefixIndex([0], length=0, width=8)
        # The trie's scalar range probe keeps its bound checks.
        fst = FastSuccinctTrie.from_prefixes([b"ab"])
        with pytest.raises(ValueError, match="empty"):
            fst.range_overlaps(b"b", b"a")
        with pytest.raises(ValueError, match="same byte length"):
            fst.range_overlaps(b"a", b"ab")


class TestPhysicalSuRF:
    @pytest.fixture(scope="class")
    def workload(self):
        rng = random.Random(48)
        keys = random_keys(rng, 1500, WIDTH)
        queries = mixed_queries(rng, keys, 600, WIDTH)
        return keys, queries

    def test_zero_false_negatives_and_parity(self, workload):
        # SuRF's answers are the pruned pointer trie's, scalar and batched.
        keys, queries = workload
        _assert_surf_matches_pointer_trie(keys, queries, None, random.Random(50))

    @pytest.mark.parametrize(
        "key_dist, max_depth",
        [("uniform", 2), ("zipf", None), ("zipf", 2), ("clustered", None), ("clustered", 3)],
    )
    def test_skewed_keys_and_capped_depths_match_pointer_trie(self, key_dist, max_depth):
        # Skewed key sets prune at uneven depths and a capped trie merges
        # colliding prefixes; both must still answer as the pointer trie.
        rng = random.Random(51)
        draw = {"uniform": random_keys, "zipf": zipf_keys, "clustered": clustered_keys}
        keys = list(draw[key_dist](rng, 1500, WIDTH))
        queries = mixed_queries(rng, keys, 600, WIDTH)
        _assert_surf_matches_pointer_trie(keys, queries, max_depth, rng)

    def test_measured_size_within_tolerance(self, workload):
        keys, _ = workload
        for max_depth in (2, 4):
            surf = SuRF(keys, WIDTH, max_depth)
            predicted = surf.size_in_bits()
            measured = surf.trie.size_in_bits()
            assert predicted <= measured <= predicted * (1 + SIZE_TOLERANCE)
            breakdown = surf.trie.size_breakdown()
            assert breakdown["dense"] + breakdown["sparse"] == measured

    def test_empty_and_single_key_filters(self):
        empty = SuRF([], WIDTH)
        assert not empty.may_contain(3)
        assert not empty.may_intersect(0, (1 << WIDTH) - 1)
        assert empty.size_in_bits() == 0
        single = SuRF([123456], WIDTH)
        assert single.may_contain(123456)
        assert single.may_intersect(0, (1 << WIDTH) - 1)

    def test_engine_knobs_are_gone(self, workload):
        # One trie engine per filter: no constructor or spec parameter
        # picks another.
        keys, queries = workload
        with pytest.raises(TypeError):
            SuRF(keys, WIDTH, physical=True)
        bundle = Workload(keys, queries, width=WIDTH)
        for spec in (
            FilterSpec("surf", 14.0, {"physical": True}),
            FilterSpec("proteus", 14.0, {"trie_impl": "fst"}),
        ):
            with pytest.raises(ValueError, match="unknown parameter"):
                build_filter(spec, bundle.keys, bundle)


class TestSizeCheckDriver:
    def test_tiny_run_and_check(self, tmp_path, capsys):
        from repro.evaluation.size_check import check_report, main, run_size_check

        report = run_size_check(
            num_keys=400,
            num_queries=200,
            key_dists=("uniform",),
            query_families=("mixed",),
        )
        assert report["summary"]["false_negatives"] == 0
        assert report["summary"]["parity_mismatches"] == 0
        assert report["summary"]["size_violations"] == 0
        assert check_report(report) == []
        out = tmp_path / "size_check.json"
        code = main(["--keys", "300", "--queries", "150", "--check",
                     "--output", str(out)])
        assert code == 0
        assert out.exists()
        capsys.readouterr()

    def test_check_report_flags_violations(self):
        from repro.evaluation.size_check import check_report

        report = {
            "config": {"tolerance": 0.05},
            "summary": {
                "size_violations": 1,
                "worst_measured_over_predicted": 1.2,
                "false_negatives": 2,
                "parity_mismatches": 3,
            },
        }
        violations = check_report(report)
        assert len(violations) == 3
