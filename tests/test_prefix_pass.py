"""The prefix pass: what an LSM level's layout covers, and what filters pickle.

:class:`~repro.filters.prefix_pass.PrefixPass` is both each prefix filter's
own probe (laid out for the filter alone) and the level pass of
:class:`~repro.lsm.layout.LevelLayout`.  A level covers exactly the SSTs
whose filter the pass answers for; every other filter keeps its own
``probe_many`` call.  The pass is built on each probe call, so a filter's
pickle (what a shard worker receives) holds no probe state.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.api import FilterSpec, Workload, build_filter, registered_families
from repro.core.design import FilterDesign
from repro.core.proteus import Proteus
from repro.filters.base import RangeFilter
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.lsm import LSMTree, SSTable
from repro.workloads.batch import coerce_keys
from repro.workloads.datasets import load_dataset

#: The registered families the prefix pass answers for.
PASS_FAMILIES = {"proteus", "prefix_bloom", "bloom", "1pbf"}


@pytest.fixture(scope="module")
def workloads():
    return {
        "ints": Workload.generate(num_keys=600, num_queries=200, width=32, seed=3),
        "bytes": load_dataset("dblp", num_keys=600, num_queries=200, seed=3),
    }


@pytest.mark.parametrize("kind", ["ints", "bytes"])
@pytest.mark.parametrize("family", registered_families())
def test_layout_covers_every_sst_whose_filter_the_pass_answers(workloads, kind, family):
    workload = workloads[kind]
    tree = LSMTree.build(workload.keys, sst_keys=128, fanout=2, seed=3)
    tree.attach_filters(FilterSpec(family, 10.0), workload)
    expected = family in PASS_FAMILIES
    for layout in tree._layouts:
        assert layout.covered.tolist() == [expected] * len(layout.ssts)
    result = tree.probe(workload.queries)
    assert result.missed_reads.sum() == 0


class ThirdPartyFilter(RangeFilter):
    """A filter from outside the package: it answers for itself."""

    def __init__(self, width: int):
        self.width = width
        self.num_keys = 1

    def may_intersect_many(self, queries):
        return np.ones(len(self._batch(queries)), dtype=bool)

    def size_in_bits(self) -> int:
        return 0


class AlwaysPositivePrefixBloom(PrefixBloomFilter):
    """A prefix Bloom filter whose probe is not the pass (it answers everything)."""

    def may_intersect_many(self, queries):
        return np.ones(len(self._batch(queries)), dtype=bool)


def test_layout_leaves_filters_the_pass_does_not_answer_for():
    width = 16
    level = [
        SSTable(0, index, coerce_keys(range(start, start + 40, 4), width))
        for index, start in enumerate((100, 5000, 9000, 20000, 30000))
    ]
    trie_only = FilterDesign("proteus", 8, 0, 0, 0, 0.0)
    level[0].attach_filter(Proteus(level[0].keys, width, trie_only))
    # Built over keys whose l1-blocks all lie above this SST's fences.
    level[1].attach_filter(Proteus(coerce_keys([40000, 50000], width), width, trie_only))
    level[2].attach_filter(Proteus(coerce_keys([], width), width, trie_only))
    level[3].attach_filter(ThirdPartyFilter(width))
    level[4].attach_filter(AlwaysPositivePrefixBloom(level[4].keys, width, 12, 256))
    tree = LSMTree([level], width)
    assert tree._layouts[0].covered.tolist() == [True, False, False, False, False]
    result = tree.probe([(100, 100), (5000, 5004), (9000, 9000), (20000, 20001), (30000, 30000)])
    assert result.blocks_read.tolist() == [1, 0, 0, 1, 1]


def _int_queries(rng: random.Random, keys: list[int], width: int, count: int):
    top = (1 << width) - 1
    pairs = []
    for _ in range(count):
        lo = min(rng.choice(keys) + rng.randrange(-3, 4), top)
        lo = max(lo, 0)
        pairs.append((lo, min(lo + rng.randrange(1 << rng.randrange(1, 12)), top)))
    return pairs


def _proteus(keys, width, l1, l2, bits):
    return Proteus(keys, width, FilterDesign("proteus", l1, l2, 0, bits, 0.0), seed=2)


@pytest.fixture(scope="module")
def pass_filters():
    """``name -> (filter, probe keys, range queries)`` for every pass family."""
    rng = random.Random(17)
    cases = {}
    for width in (32, 64):
        keys = sorted({rng.randrange(1 << width) for _ in range(500)})
        if width == 64:
            keys = sorted(set(keys) | {0, (1 << 63) - 1, 1 << 63, (1 << 64) - 1})
        queries = _int_queries(rng, keys, width, 200)
        if width == 64:
            queries.append((0, (1 << 64) - 1))
        filt = _proteus(keys, width, width // 2, width - 6, 8000)
        cases[f"proteus-{width}"] = filt, keys, queries
    dblp = load_dataset("dblp", num_keys=500, num_queries=200, seed=5)
    filt = _proteus(dblp.keys, dblp.width, 12, 40, 8000)
    cases["proteus-bytes"] = filt, dblp.keys.as_list(), list(dblp.queries.pairs())
    ints = Workload.generate(num_keys=500, num_queries=200, width=32, seed=6)
    for family in ("prefix_bloom", "bloom", "1pbf"):
        filt = build_filter(FilterSpec(family, 10.0), None, ints)
        cases[family] = filt, ints.keys.as_list(), list(ints.queries.pairs())
    return cases


@pytest.mark.parametrize(
    "name", ["proteus-32", "proteus-64", "proteus-bytes", "prefix_bloom", "bloom", "1pbf"]
)
def test_probes_leave_the_pickle_unchanged(pass_filters, name):
    filt, keys, queries = pass_filters[name]
    before = pickle.dumps(filt)
    assert filt.may_contain(keys[0])
    filt.may_intersect(*queries[0])
    assert filt.may_contain_many(keys).all()
    answers = filt.may_intersect_many(queries)
    assert pickle.dumps(filt) == before
    assert pickle.loads(before).may_intersect_many(queries).tolist() == answers.tolist()
