"""CPFPR model tests: internal consistency and model-vs-empirical agreement.

The acceptance bar for this subsystem: on a seeded 10k-key / 1k-query
workload, the built Proteus filter must have zero false negatives and an empirical
FPR within 2x of the CPFPR model's prediction (with a small additive term
for sampling noise at near-zero rates).
"""

import random

import pytest

from conftest import correlated_queries, mixed_queries, random_keys
from repro.api import FilterSpec, Workload, build_filter
from repro.core.cpfpr import CPFPRModel
from repro.core.design import design_one_pbf, design_proteus
from repro.filters.base import TrieOracle

WIDTH = 32


def _self_designed(family, keys, queries, bits_per_key):
    workload = Workload(keys, queries, width=WIDTH)
    return build_filter(FilterSpec(family, float(bits_per_key)), workload.keys, workload)


def _empirical_fpr(filt, oracle, queries):
    false_positives = 0
    empty = 0
    for lo, hi in queries:
        if oracle.may_intersect(lo, hi):
            assert filt.may_intersect(lo, hi), f"false negative on [{lo}, {hi}]"
        else:
            empty += 1
            false_positives += filt.may_intersect(lo, hi)
    assert empty > 0, "workload produced no empty queries"
    return false_positives / empty, empty


def _assert_within_2x(empirical, predicted, empty):
    # 2x multiplicative agreement with an additive allowance for binomial
    # noise at near-zero rates (a handful of events over `empty` queries).
    slack = 5.0 / empty
    assert empirical <= 2.0 * predicted + slack, (empirical, predicted)
    assert predicted <= 2.0 * empirical + slack, (empirical, predicted)


class TestModelInternals:
    def test_empty_query_classification(self):
        keys = [10, 20, 30]
        queries = [(0, 5), (10, 10), (11, 19), (25, 35), (31, 40)]
        model = CPFPRModel(keys, 8, queries)
        assert model.num_queries == 5
        # (10,10), (25,35) and... (31,40)? 30 < 31, no key in [31,40] -> empty.
        empties = {(lo, hi) for lo, hi, _ in model.empty_queries}
        assert empties == {(0, 5), (11, 19), (31, 40)}

    def test_certain_fp_fraction_monotone(self):
        rng = random.Random(31)
        keys = random_keys(rng, 500, WIDTH)
        queries = mixed_queries(rng, keys, 300, WIDTH)
        model = CPFPRModel(keys, WIDTH, queries)
        fractions = [model.certain_fp_fraction(depth) for depth in range(WIDTH + 1)]
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[0] == 1.0

    def test_design_rejects_bad_layers(self):
        model = CPFPRModel([1, 2], 8, [(4, 5)])
        with pytest.raises(ValueError):
            model.proteus_fpr(5, 5, 100)
        with pytest.raises(ValueError):
            model.two_pbf_fpr(5, 5, 100, 100)

    def test_rejects_out_of_space_inputs(self):
        # Regression: queries used to bypass the key-space bounds check and
        # silently feed garbage LCPs into the model.
        with pytest.raises(ValueError):
            CPFPRModel([1, 2], 8, [(-50, -10)])
        with pytest.raises(ValueError):
            CPFPRModel([1, 2], 8, [(300, 400)])
        with pytest.raises(ValueError):
            CPFPRModel([1, 300], 8, [(4, 5)])

    def test_no_empty_queries_gives_zero_fpr_design(self):
        keys = list(range(0, 256, 2))
        queries = [(k, k) for k in keys[:20]]  # every query hits a key
        model = CPFPRModel(keys, 8, queries)
        assert model.num_empty_queries == 0
        design = design_proteus(model, 1000)
        assert design.expected_fpr == 0.0
        assert design.bloom_prefix_len == 8

    def test_trie_gate_is_deterministic(self):
        # Keys start with bit 0, every query with bit 1: lcp(q, K) = 0, so a
        # depth-1 trie rejects every query while the no-layer design accepts.
        keys = [0b00000000, 0b00000001]
        queries = [(0b11110000, 0b11110011), (0b10100000, 0b10100001)]
        model = CPFPRModel(keys, 8, queries)
        assert model.proteus_fpr(0, 0, 0) == 1.0  # no layers: every empty q passes
        assert model.proteus_fpr(1, 0, 0) == 0.0  # depth-1 trie: all rejected
        assert model.certain_fp_fraction(1) == 0.0


class TestModelVsEmpirical:
    def test_proteus_agreement_uniform_10k(self):
        rng = random.Random(32)
        keys = random_keys(rng, 10_000, WIDTH)
        queries = mixed_queries(rng, keys, 1000, WIDTH)
        filt = _self_designed("proteus", keys, queries, bits_per_key=12)
        oracle = TrieOracle(keys, WIDTH)
        empirical, empty = _empirical_fpr(filt, oracle, queries)
        _assert_within_2x(empirical, filt.expected_fpr, empty)

    def test_proteus_agreement_correlated_10k(self):
        rng = random.Random(33)
        keys = random_keys(rng, 10_000, WIDTH)
        queries = correlated_queries(rng, keys, 1000, WIDTH)
        filt = _self_designed("proteus", keys, queries, bits_per_key=12)
        oracle = TrieOracle(keys, WIDTH)
        empirical, empty = _empirical_fpr(filt, oracle, queries)
        _assert_within_2x(empirical, filt.expected_fpr, empty)

    def test_two_pbf_agreement_mixed_10k(self):
        # The 2PBF model multiplies the two layers' false-positive
        # probabilities (independent seeds); this validates that
        # independence assumption at the same scale as the Proteus tests.
        rng = random.Random(39)
        keys = random_keys(rng, 10_000, WIDTH)
        queries = mixed_queries(rng, keys, 1000, WIDTH)
        filt = _self_designed("2pbf", keys, queries, bits_per_key=12)
        oracle = TrieOracle(keys, WIDTH)
        empirical, empty = _empirical_fpr(filt, oracle, queries)
        _assert_within_2x(empirical, filt.expected_fpr, empty)

    def test_two_pbf_agreement_correlated_10k(self):
        rng = random.Random(43)
        keys = random_keys(rng, 10_000, WIDTH)
        queries = correlated_queries(rng, keys, 1000, WIDTH)
        filt = _self_designed("2pbf", keys, queries, bits_per_key=12)
        oracle = TrieOracle(keys, WIDTH)
        empirical, empty = _empirical_fpr(filt, oracle, queries)
        _assert_within_2x(empirical, filt.expected_fpr, empty)

    def test_one_pbf_agreement(self):
        rng = random.Random(34)
        keys = random_keys(rng, 4000, WIDTH)
        queries = mixed_queries(rng, keys, 600, WIDTH)
        filt = _self_designed("1pbf", keys, queries, bits_per_key=10)
        oracle = TrieOracle(keys, WIDTH)
        empirical, empty = _empirical_fpr(filt, oracle, queries)
        _assert_within_2x(empirical, filt.expected_fpr, empty)

    def test_fixed_design_model_matches_prefix_bloom(self):
        # Evaluate the model at an explicit 1PBF design point and compare to
        # the empirical FPR of the PrefixBloomFilter at the same point.
        from repro.filters.prefix_bloom import PrefixBloomFilter

        rng = random.Random(35)
        keys = random_keys(rng, 4000, WIDTH)
        queries = mixed_queries(rng, keys, 800, WIDTH)
        model = CPFPRModel(keys, WIDTH, queries)
        prefix_len, num_bits = 22, 40_000
        predicted = model.one_pbf_fpr(prefix_len, num_bits)
        filt = PrefixBloomFilter(keys, WIDTH, prefix_len, num_bits)
        oracle = TrieOracle(keys, WIDTH)
        empirical, empty = _empirical_fpr(filt, oracle, queries)
        _assert_within_2x(empirical, predicted, empty)


class TestAlgorithm1:
    def test_design_respects_budget(self):
        rng = random.Random(36)
        keys = random_keys(rng, 3000, WIDTH)
        queries = mixed_queries(rng, keys, 400, WIDTH)
        model = CPFPRModel(keys, WIDTH, queries)
        budget = 30_000
        design = design_proteus(model, budget)
        assert design.total_bits() <= budget
        assert 0 <= design.trie_depth <= WIDTH
        if design.bloom_prefix_len:
            assert design.trie_depth < design.bloom_prefix_len

    def test_chosen_design_beats_naive_alternatives(self):
        # Algorithm 1's pick must be at least as good (under the model) as a
        # handful of arbitrary feasible designs.
        rng = random.Random(37)
        keys = random_keys(rng, 3000, WIDTH)
        queries = correlated_queries(rng, keys, 500, WIDTH)
        model = CPFPRModel(keys, WIDTH, queries)
        budget = 36_000
        chosen = design_proteus(model, budget)
        for bloom_len in (8, 16, 24, WIDTH):
            alternative = model.one_pbf_fpr(bloom_len, budget)
            assert chosen.expected_fpr <= alternative + 1e-12

    def test_one_pbf_design_is_single_layer(self):
        rng = random.Random(38)
        keys = random_keys(rng, 2000, WIDTH)
        queries = mixed_queries(rng, keys, 300, WIDTH)
        model = CPFPRModel(keys, WIDTH, queries)
        design = design_one_pbf(model, 20_000)
        assert design.kind == "1pbf"
        assert design.trie_depth == 0
        assert design.trie_bits == 0
        assert 1 <= design.bloom_prefix_len <= WIDTH
