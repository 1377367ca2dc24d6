"""End-to-end Proteus tests: the acceptance criteria of this subsystem, the
lazy top-level package import, and string-key support."""

import random

import pytest

import repro
from conftest import mixed_queries, random_keys
from repro.api import FilterSpec, Workload, build_filter
from repro.core.design import FilterDesign
from repro.core.proteus import Proteus
from repro.filters.base import TrieOracle

WIDTH = 32


class TestLazyPackage:
    def test_import_repro_succeeds(self):
        assert repro.__version__

    def test_reexports_resolve(self):
        assert repro.Proteus is Proteus
        assert "Proteus" in dir(repro)

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_export

    def test_trie_encoders_resolve_lazily(self):
        import repro.trie  # resolves lazily; the encoders are physical now

        from repro.trie.fst import FastSuccinctTrie

        assert repro.trie.FastSuccinctTrie is FastSuccinctTrie
        # Star-import pulls every encoder alongside the original names.
        namespace: dict = {}
        exec("from repro.trie import *", namespace)
        assert "FastSuccinctTrie" in namespace
        assert "FSTPrefixIndex" in namespace
        assert "LoudsDenseTrie" in namespace
        assert "LoudsSparseTrie" in namespace


class TestBuildAcceptance:
    @pytest.fixture(scope="class")
    def built(self):
        rng = random.Random(51)
        keys = random_keys(rng, 10_000, WIDTH)
        queries = mixed_queries(rng, keys, 1000, WIDTH)
        workload = Workload(keys, queries, width=WIDTH)
        filt = build_filter(FilterSpec("proteus", 14.0), workload.keys, workload)
        return keys, queries, filt

    def test_returns_configured_filter(self, built):
        keys, _, filt = built
        assert isinstance(filt, Proteus)
        assert isinstance(filt.design, FilterDesign)
        assert filt.num_keys == len(set(keys))
        assert 0.0 <= filt.expected_fpr <= 1.0

    def test_budget_respected(self, built):
        keys, _, filt = built
        budget = int(14 * len(set(keys)))
        # BitArray rounds the Bloom layer up to whole bytes.
        assert filt.size_in_bits() <= budget + 8

    def test_zero_false_negatives_points(self, built):
        keys, _, filt = built
        assert all(filt.may_contain(key) for key in keys)

    def test_zero_false_negatives_ranges(self, built):
        keys, queries, filt = built
        oracle = TrieOracle(keys, WIDTH)
        for lo, hi in queries:
            if oracle.may_intersect(lo, hi):
                assert filt.may_intersect(lo, hi)
        # Fresh ranges straddling known keys must also be positive.
        rng = random.Random(52)
        top = (1 << WIDTH) - 1
        for _ in range(300):
            key = keys[rng.randrange(len(keys))]
            lo = max(0, key - rng.randrange(0, 100))
            hi = min(top, key + rng.randrange(0, 100))
            assert filt.may_intersect(lo, hi)

    def test_wide_ranges_conservative(self, built):
        keys, _, filt = built
        # A range wider than the probe clamp must return True, never crash.
        assert filt.may_intersect(0, (1 << WIDTH) - 1)


class TestDirectConstruction:
    def test_explicit_design_layers(self):
        rng = random.Random(53)
        keys = random_keys(rng, 500, WIDTH)
        design = FilterDesign("proteus", 12, 24, 2_000, 6_000, 0.1)
        filt = Proteus(keys, WIDTH, design)
        assert all(filt.may_contain(key) for key in keys)
        with pytest.raises(ValueError):
            Proteus(keys, WIDTH, FilterDesign("proteus", 24, 12, 0, 100, 0.0))

    def test_trie_only_design(self):
        rng = random.Random(54)
        keys = random_keys(rng, 500, WIDTH)
        filt = Proteus(keys, WIDTH, FilterDesign("proteus", 10, 0, 2_000, 0, 0.0))
        assert all(filt.may_contain(key) for key in keys)
        oracle = TrieOracle(keys, WIDTH)
        for lo, hi in mixed_queries(rng, keys, 200, WIDTH):
            if oracle.may_intersect(lo, hi):
                assert filt.may_intersect(lo, hi)

    def test_empty_key_set(self):
        filt = Proteus([], WIDTH, FilterDesign("proteus", 0, 16, 0, 100, 0.0))
        assert not filt.may_contain(1)
        assert not filt.may_intersect(0, 100)


class TestStringKeys:
    def test_built_prfs_encode_raw_queries(self):
        # Regression: OnePBF/TwoPBF stored their key space but queried the
        # raw domain without encoding, crashing on string keys.
        from repro.core.prf import OnePBF, TwoPBF

        words = ["ab", "cd", "ef", "gh", "zz"]
        workload = Workload(words, [("aa", "ac"), ("x", "y")])
        for cls, family in ((OnePBF, "1pbf"), (TwoPBF, "2pbf")):
            filt = build_filter(FilterSpec(family, 16), workload.keys, workload)
            assert isinstance(filt, cls)
            assert filt.may_contain("ab")
            assert filt.may_intersect("aa", "ac")
            assert all(filt.may_contain(w) for w in words)

    def test_string_workload_end_to_end(self):
        rng = random.Random(55)
        alphabet = "abcdef"
        words = sorted(
            {
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(2, 6)))
                for _ in range(400)
            }
        )
        queries = []
        for _ in range(150):
            a = "".join(rng.choice(alphabet) for _ in range(3))
            b = "".join(rng.choice(alphabet) for _ in range(3))
            lo, hi = sorted((a, b))
            queries.append((lo, hi))
        workload = Workload(words, queries)
        filt = build_filter(FilterSpec("proteus", 14.0), workload.keys, workload)
        oracle = TrieOracle(workload.keys, workload.width)
        assert all(filt.may_contain(word) for word in words)
        for lo, hi in queries:
            if oracle.may_intersect(lo, hi):
                assert filt.may_intersect(lo, hi)
