"""Dataset loaders: bundled corpora, determinism, and driver integration.

The loaders in :mod:`repro.workloads.datasets` are the repo's stand-ins
for the paper's real datasets (SOSD books/osm, YCSB-E, DBLP strings).
Pinned here:

* every registered dataset loads into a well-formed Workload (sorted
  distinct keys, full query count, provenance metadata) and is a pure
  function of its seeds;
* the committed DBLP corpus file equals its seeded synthesis, so an
  installation without package data reproduces the identical workload;
* ``dataset_queries`` redraws held-out queries against existing keys —
  the hook ``evaluation.sweep.held_out_queries`` relies on;
* the sweep and LSM-bench drivers run end to end on a dataset workload
  with zero false negatives (``--dataset`` smoke path).
"""

import random

import numpy as np
import pytest

from repro.workloads.bytekeys import ByteKeySet, ByteQueryBatch
from repro.workloads.datasets import (
    _DBLP_CORPUS_SEED,
    _DBLP_CORPUS_SIZE,
    DATA_DIR,
    DATASETS,
    dataset_queries,
    list_datasets,
    load_dataset,
    synthesize_dblp_corpus,
)

SMALL = dict(num_keys=512, num_queries=256)


def test_registry_names():
    assert list_datasets() == ["dblp", "sosd_books", "sosd_osm", "ycsb_e"]
    assert set(list_datasets()) == set(DATASETS)


def test_unknown_dataset_lists_the_names():
    with pytest.raises(ValueError, match="sosd_books"):
        load_dataset("tpc_h")


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_loads_well_formed_workload(name):
    workload = load_dataset(name, seed=3, **SMALL)
    assert workload.num_keys <= SMALL["num_keys"]
    assert workload.num_queries == SMALL["num_queries"]
    keys = workload.keys.as_list()
    assert keys == sorted(set(keys))  # sorted, distinct
    meta = workload.metadata
    assert meta["dataset"] == name
    assert meta["source"] == "dataset"
    assert meta["width"] == workload.width
    assert meta["seed"] == 3 and meta["query_seed"] == 4
    # Byte datasets carry byte types; SOSD facsimiles stay integer-encoded.
    if name in ("dblp", "ycsb_e"):
        assert isinstance(workload.keys, ByteKeySet)
        assert isinstance(workload.queries, ByteQueryBatch)
    else:
        assert not workload.keys.is_bytes
        assert workload.keys.keys.dtype == np.int64  # 48/60-bit spaces ride int64


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_loader_is_deterministic(name):
    first = load_dataset(name, seed=7, **SMALL)
    again = load_dataset(name, seed=7, **SMALL)
    assert first.keys.as_list() == again.keys.as_list()
    assert list(first.queries.pairs()) == list(again.queries.pairs())
    other_seed = load_dataset(name, seed=8, **SMALL)
    assert first.keys.as_list() != other_seed.keys.as_list()


def test_query_seed_redraws_queries_over_identical_keys():
    base = load_dataset("dblp", seed=5, **SMALL)
    redrawn = load_dataset("dblp", seed=5, query_seed=99, **SMALL)
    assert base.keys.as_list() == redrawn.keys.as_list()
    assert list(base.queries.pairs()) != list(redrawn.queries.pairs())


def test_dataset_queries_draws_held_out_batches():
    workload = load_dataset("dblp", seed=2, **SMALL)
    held_out = dataset_queries("dblp", workload.keys, 128, seed=77)
    assert isinstance(held_out, ByteQueryBatch)
    assert len(held_out) == 128
    assert held_out.width == workload.width
    # Same seed reproduces, fresh seed differs from the design sample.
    again = dataset_queries("dblp", workload.keys, 128, seed=77)
    assert list(held_out.pairs()) == list(again.pairs())
    design_pairs = set(workload.queries.pairs())
    assert any(pair not in design_pairs for pair in held_out.pairs())


def test_dblp_corpus_file_matches_synthesis():
    # The committed file and the in-memory fallback must be the same corpus.
    path = DATA_DIR / "dblp_keys.txt"
    assert path.is_file(), "bundled corpus missing from the package data"
    from_file = [line for line in path.read_text().splitlines() if line]
    assert from_file == synthesize_dblp_corpus(_DBLP_CORPUS_SIZE, _DBLP_CORPUS_SEED)
    assert len(from_file) == _DBLP_CORPUS_SIZE
    assert from_file == sorted(set(from_file))
    assert all(key.split("/")[0] in ("conf", "journals") for key in from_file)


def test_ycsb_keys_preserve_numeric_order():
    workload = load_dataset("ycsb_e", seed=1, **SMALL)
    keys = workload.keys.as_list()
    assert all(key.startswith(b"user") and len(key) == 14 for key in keys)
    ids = [int(key[4:]) for key in keys]
    assert ids == sorted(ids)  # zero-padded decimal == lexicographic order


def test_sosd_facsimiles_are_clustered_in_their_widths():
    books = load_dataset("sosd_books", seed=4, **SMALL)
    osm = load_dataset("sosd_osm", seed=4, **SMALL)
    assert books.width == 48 and osm.width == 60
    for workload in (books, osm):
        top = (1 << workload.width) - 1
        keys = np.asarray(workload.keys.as_list(), dtype=object)
        assert int(keys[0]) >= 0 and int(keys[-1]) <= top


class TestDriverIntegration:
    def test_sweep_runs_on_a_dataset(self):
        from repro.evaluation.sweep import check_monotone, run_sweep

        report = run_sweep(
            families=("proteus", "prefix_bloom"),
            grid=(10.0, 16.0),
            num_keys=600,
            num_queries=300,
            seed=11,
            dataset="dblp",
        )
        meta = report["workload"]["metadata"]
        assert meta["dataset"] == "dblp"
        assert set(report["curves"]) == {"proteus", "prefix_bloom"}
        for points in report["curves"].values():
            for point in points:
                assert 0.0 <= point["empirical_fpr"] <= 1.0
        assert check_monotone(report, tolerance=0.05) == []

    def test_held_out_queries_uses_the_dataset_sampler(self):
        from repro.evaluation.sweep import held_out_queries

        workload = load_dataset("dblp", seed=6, **SMALL)
        batch = held_out_queries(workload, 64, seed=123, query_family="mixed")
        assert isinstance(batch, ByteQueryBatch)
        assert list(batch.pairs()) == list(
            dataset_queries("dblp", workload.keys, 64, 123).pairs()
        )

    def test_lsm_bench_runs_on_a_dataset(self):
        from repro.evaluation.lsm_bench import run_lsm_bench

        report = run_lsm_bench(
            families=("proteus",),
            bits_per_key=12.0,
            num_keys=800,
            num_queries=300,
            seed=13,
            sst_keys=128,
            dataset="dblp",
        )
        assert report["workload"]["metadata"]["dataset"] == "dblp"
        configs = report["configs"]
        assert configs["proteus"]["probe"]["missed_reads"] == 0
        assert (
            configs["proteus"]["probe"]["false_positive_reads"]
            <= configs["no_filter"]["probe"]["false_positive_reads"]
        )


def test_dataset_rng_isolation():
    # Loaders must not perturb (or depend on) the global random module.
    random.seed(0)
    before = random.random()
    random.seed(0)
    load_dataset("ycsb_e", seed=9, **SMALL)
    assert random.random() == before
