"""Tests for the online LSM write path: memtable, flush, compaction,
tombstone semantics end to end, budget re-splits, the drift-actuated
filter lifecycle, and the timeline benchmark."""

import json
import random

import numpy as np
import pytest

from repro.api import FilterSpec, resplit_on_topology_change
from repro.evaluation.lsm_bench import main
from repro.evaluation.timeline import check_timeline_report, run_timeline_bench
from repro.lsm import (
    EntryRun,
    FilterLifecycle,
    MemTable,
    OnlineLSMTree,
    SSTable,
    merge_entry_runs,
)
from repro.workloads import EncodedKeySet, QueryBatch
from repro.workloads.generators import (
    correlated_queries,
    random_keys,
    uniform_queries,
    write_stream,
)

WIDTH = 32


def replay_truth(ops_batches) -> dict[int, bool]:
    """Ground truth of a write stream: key -> is-live after the last op."""
    truth: dict[int, bool] = {}
    for ops in ops_batches:
        for op, key in ops:
            truth[key] = op == "put"
    return truth


class TestMemTable:
    def test_last_write_wins(self):
        table = MemTable(WIDTH)
        table.put(5)
        table.delete(5)
        assert table.get(5) is False
        table.put(5)
        assert table.get(5) is True
        assert table.get(6) is None
        assert len(table) == 1

    def test_delete_of_unseen_key_records_a_tombstone(self):
        # The key may live in an SST below: the tombstone must flush.
        table = MemTable(WIDTH)
        table.delete(99)
        assert table.get(99) is False
        assert table.num_tombstones == 1
        run = table.seal()
        assert run.keys.as_list() == [99]
        assert run.tombstone_mask().tolist() == [True]

    def test_seal_sorts_clears_and_marks_tombstones(self):
        table = MemTable(WIDTH, capacity=4)
        table.apply([("put", 30), ("put", 10), ("del", 20), ("put", 40)])
        assert table.is_full
        run = table.seal()
        assert run.keys.as_list() == [10, 20, 30, 40]
        assert run.tombstone_mask().tolist() == [False, True, False, False]
        assert table.is_empty and not table.is_full

    def test_seal_empty_and_bad_inputs_raise(self):
        table = MemTable(WIDTH, capacity=2)
        with pytest.raises(ValueError):
            table.seal()
        with pytest.raises(ValueError):
            table.put(1 << WIDTH)
        with pytest.raises(ValueError):
            table.put(-1)
        with pytest.raises(ValueError):
            table.apply([("upsert", 3)])
        with pytest.raises(ValueError):
            MemTable(WIDTH, capacity=0)


class TestMerge:
    def test_newest_run_shadows_older_entries(self):
        newest = EntryRun(EncodedKeySet([2, 4], WIDTH), np.array([True, False]))
        oldest = EntryRun(EncodedKeySet([2, 3, 4], WIDTH))
        merged = merge_entry_runs([newest, oldest])
        assert merged.keys.as_list() == [2, 3, 4]
        # Key 2: the newest entry is a tombstone; key 4: a live put.
        assert merged.tombstone_mask().tolist() == [True, False, False]

    def test_drop_tombstones_removes_surviving_deletes(self):
        newest = EntryRun(EncodedKeySet([2, 4], WIDTH), np.array([True, False]))
        oldest = EntryRun(EncodedKeySet([2, 3], WIDTH))
        merged = merge_entry_runs([newest, oldest], drop_tombstones=True)
        assert merged.keys.as_list() == [3, 4]
        assert merged.tombstones is None

    def test_merge_can_produce_an_empty_run(self):
        only = EntryRun(EncodedKeySet([7], WIDTH), np.array([True]))
        merged = merge_entry_runs([only], drop_tombstones=True)
        assert len(merged) == 0

    def test_entry_run_validates_mask_shape(self):
        with pytest.raises(ValueError):
            EntryRun(EncodedKeySet([1, 2], WIDTH), np.array([True]))
        with pytest.raises(ValueError):
            merge_entry_runs([])

    def test_merge_sorted_collapses_duplicates(self):
        merged = SSTable.merge_sorted(
            [EncodedKeySet([1, 5, 9], WIDTH), EncodedKeySet([5, 6], WIDTH)]
        )
        assert merged.as_list() == [1, 5, 6, 9]


def churn_tree(spec=None, seed=3, batches=10, batch_size=128, **kwargs):
    """A small tree churned through a seeded stream; returns (tree, truth)."""
    rng = random.Random(seed)
    stream = write_stream(rng, batches, batch_size, WIDTH, delete_fraction=0.2)
    design = QueryBatch.from_pairs(
        uniform_queries(rng, 256, WIDTH, 1000), WIDTH
    )
    kwargs.setdefault("sst_keys", 64)
    kwargs.setdefault("level0_runs", 3)
    tree = OnlineLSMTree(WIDTH, spec, design_queries=design, **kwargs)
    for ops in stream:
        tree.apply(ops)
    tree.flush()
    return tree, replay_truth(stream)


class TestFlushAndCompaction:
    def test_flush_stacks_level0_newest_first(self):
        tree = OnlineLSMTree(WIDTH, sst_keys=4, level0_runs=10)
        tree.apply([("put", 1), ("put", 2), ("put", 3)])
        first = tree.flush()
        tree.apply([("put", 8), ("put", 9)])
        second = tree.flush()
        assert tree.level0 == [second, first]
        assert tree.flush() is None  # empty memtable: no-op

    def test_compaction_triggers_at_level0_runs(self):
        tree = OnlineLSMTree(WIDTH, sst_keys=4, level0_runs=2)
        for base in (0, 100, 200):  # third flush exceeds level0_runs=2
            tree.apply([("put", base + offset) for offset in range(4)])
        assert tree.level0 == []
        assert tree.stats["compactions"] >= 1
        assert tree.num_entries == 12

    def test_newest_wins_across_levels(self):
        tree = OnlineLSMTree(WIDTH, sst_keys=4, level0_runs=1)
        tree.apply([("put", 10), ("put", 20), ("put", 30), ("put", 40)])
        tree.flush()
        tree.apply([("del", 20), ("put", 50)])
        tree.flush()  # forces a merge: the delete must shadow the old put
        assert tree.lookup_many([10, 20, 30, 40, 50]).tolist() == [
            True, False, True, True, True,
        ]

    def test_tombstones_drop_only_at_the_bottom(self):
        tree, truth = churn_tree()
        # Deeper levels were written while entries existed below them only
        # for non-final merges; the deepest populated level must hold no
        # tombstone that a bottom-merge could have dropped.
        populated = [level for level in tree.deep_levels if level]
        if populated:
            bottom = populated[-1]
            assert all(sst.num_tombstones == 0 for sst in bottom)
        assert tree.stats["tombstones_dropped"] > 0

    def test_lookup_matches_replayed_ground_truth(self):
        tree, truth = churn_tree()
        keys = sorted(truth)
        got = tree.lookup_many(np.array(keys, dtype=np.int64))
        want = [truth[key] for key in keys]
        assert got.tolist() == want

    def test_cascade_leaves_empty_levels_the_snapshot_tolerates(self):
        tree = OnlineLSMTree(WIDTH, sst_keys=8, fanout=2, level0_runs=1)
        rng = random.Random(9)
        fresh = random_keys(rng, 512, WIDTH)
        for start in range(0, 512, 8):
            tree.apply([("put", key) for key in fresh[start : start + 8]])
        tree.flush()
        snapshot = tree.snapshot()
        assert any(not level for level in snapshot.levels)  # a real gap
        points = QueryBatch.points(fresh, WIDTH)
        result = snapshot.probe(points)
        assert int(result.missed_reads.sum()) == 0
        assert (result.required_reads >= 1).all()

    def test_every_sst_gets_a_filter_after_every_topology_change(self):
        spec = FilterSpec("bloom", 10.0)
        tree, _ = churn_tree(spec)
        assert tree.num_ssts > 0
        for sst in tree.sstables():
            assert sst.filter is not None
            assert sst.spec is not None
        assert tree.stats["filters_built"] >= tree.num_ssts
        assert tree.filter_size_bits() > 0


class TestRebudget:
    def test_proportional_resplit_keeps_surviving_grants(self):
        spec = FilterSpec("bloom", 10.0)
        previous = resplit_on_topology_change(spec, [100, 200], [None, None])[0]
        specs, stale = resplit_on_topology_change(
            spec, [100, 200, 50], [previous[0], previous[1], None]
        )
        assert stale == [False, False, True]
        assert specs[0].bits_per_key == previous[0].bits_per_key

    def test_equal_resplit_marks_everything_stale_on_topology_change(self):
        spec = FilterSpec("bloom", 10.0)
        previous = resplit_on_topology_change(
            spec, [100, 200], [None, None], policy="equal"
        )[0]
        _, stale = resplit_on_topology_change(
            spec, [100, 200, 50], [*previous, None], policy="equal"
        )
        assert stale == [True, True, True]

    def test_resplit_rejects_mismatched_previous(self):
        with pytest.raises(ValueError):
            resplit_on_topology_change(FilterSpec("bloom", 10.0), [10], [None, None])


@pytest.mark.parametrize(
    "family", ["bloom", "prefix_bloom", "surf", "rosetta", "proteus"]
)
class TestTombstoneSemanticsPerFamily:
    def test_deletes_negative_live_found_zero_missed_reads(self, family):
        spec = FilterSpec(family, 12.0)
        tree, truth = churn_tree(spec, seed=11, batches=6)
        keys = sorted(truth)
        # Tree-level truth: a deleted key answers negative, a live key
        # positive — through every filter family.
        got = tree.lookup_many(np.array(keys, dtype=np.int64))
        assert got.tolist() == [truth[key] for key in keys]
        # Probe-level invariant: a point probe of ANY touched key (live or
        # tombstoned — the read that discovers the delete is required)
        # must never be missed by a filter.
        result = tree.probe(QueryBatch.points(keys, WIDTH))
        assert int(result.missed_reads.sum()) == 0
        live = [key for key in keys if truth[key]]
        live_result = tree.probe(QueryBatch.points(live, WIDTH))
        assert int(live_result.missed_reads.sum()) == 0
        assert (live_result.required_reads >= 1).all()


class TestFilterLifecycle:
    def _shifted_epochs(self, min_empty=8, window=4):
        rng = random.Random(21)
        stream = write_stream(rng, 8, 128, WIDTH, delete_fraction=0.1)
        design = QueryBatch.from_pairs(
            uniform_queries(rng, 512, WIDTH, 1000), WIDTH
        )
        spec = FilterSpec("proteus", 12.0)
        tree = OnlineLSMTree(
            WIDTH, spec, design_queries=design, sst_keys=128, level0_runs=3
        )
        for ops in stream:
            tree.apply(ops)
        tree.flush()
        lifecycle = FilterLifecycle(tree, window=window, min_empty=min_empty)
        touched = sorted(replay_truth(stream))
        shifted = [
            QueryBatch.from_pairs(
                correlated_queries(rng, touched, 256, WIDTH), WIDTH
            )
            for _ in range(4)
        ]
        return tree, lifecycle, shifted

    def test_drift_actuates_and_cuts_false_positives(self):
        tree, lifecycle, shifted = self._shifted_epochs()
        first = tree.probe(shifted[0], sst_stats=(stats := {}))
        lifecycle.observe_epoch(shifted[0], stats)
        assert lifecycle.stats["drift_flags"] > 0
        assert lifecycle.stats["filters_rebuilt"] > 0
        # The rebuilt designs must beat the stale ones on the shifted mix.
        later = tree.probe(shifted[1])
        assert int(later.false_positive_reads.sum()) < int(
            first.false_positive_reads.sum()
        )
        assert int(later.missed_reads.sum()) == 0

    def test_actuation_refreshes_the_shared_design_sample(self):
        tree, lifecycle, shifted = self._shifted_epochs()
        before = tree.design_queries
        tree.probe(shifted[0], sst_stats=(stats := {}))
        lifecycle.observe_epoch(shifted[0], stats)
        assert tree.design_queries is not before
        assert len(tree.design_queries) == len(lifecycle.rolling_sample())

    @pytest.mark.parametrize("width", [64, 80])
    def test_rolling_sample_keeps_the_users_bounds(self, width):
        # The sample is re-encoded once when drawn: stored width-64 bounds
        # or wide-integer bytes must not be encoded a second time.
        tree = OnlineLSMTree(width, sst_keys=8, memtable_capacity=8)
        half = 1 << 63
        tree.apply([("put", key) for key in (0, half - 1, half, (1 << width) - 1)])
        tree.flush()
        pairs = [(0, (1 << width) - 1), (half - 2, half + 2), (half, half), (1, 5)]
        lifecycle = FilterLifecycle(tree)
        lifecycle.record_queries(pairs)
        sample = lifecycle.rolling_sample()
        assert list(sample.pairs()) == pairs
        assert tree.probe(sample).required_reads.tolist() == [1, 1, 1, 0]

    def test_monitors_prune_when_ssts_compact_away(self):
        tree, lifecycle, shifted = self._shifted_epochs(min_empty=10**9)
        tree.probe(shifted[0], sst_stats=(stats := {}))
        lifecycle.observe_epoch(shifted[0], stats)
        assert lifecycle.num_monitors > 0
        # Churn until compaction replaces the monitored tables.
        rng = random.Random(22)
        for ops in write_stream(rng, 6, 256, WIDTH):
            tree.apply(ops)
        tree.flush()
        tree.probe(shifted[1], sst_stats=(stats2 := {}))
        lifecycle.observe_epoch(shifted[1], stats2)
        assert lifecycle.stats["monitors_pruned"] > 0
        live = set(tree.sstables())
        assert all(sst in live for sst in lifecycle._monitors)

    def test_unfiltered_ssts_are_not_monitored(self):
        tree, _ = churn_tree(spec=None, batches=4)
        lifecycle = FilterLifecycle(tree)
        tree.probe(
            QueryBatch.from_pairs([(1, 50), (60, 90)], WIDTH),
            sst_stats=(stats := {}),
        )
        verdict = lifecycle.observe_epoch([(1, 50), (60, 90)], stats)
        assert verdict["monitored_ssts"] == 0
        assert lifecycle.num_monitors == 0


class TestProbeWithoutSSTs:
    """``probe`` answers a tree that holds no SST, as ``lookup_many`` does."""

    @staticmethod
    def before_first_flush():
        rng = random.Random(5)
        design = QueryBatch.from_pairs(uniform_queries(rng, 64, WIDTH, 1000), WIDTH)
        tree = OnlineLSMTree(WIDTH, FilterSpec("proteus", 12.0), design, sst_keys=64)
        for key in range(10, 110, 10):
            tree.put(key)
        return tree

    @staticmethod
    def after_everything_compacted_away():
        tree = OnlineLSMTree(16, sst_keys=4, fanout=2, level0_runs=1, memtable_capacity=2)
        tree.put(5)
        tree.put(9)
        tree.delete(5)
        tree.delete(9)
        assert tree.num_entries == 0 and len(tree.memtable) == 0
        return tree

    @pytest.mark.parametrize("state", ["before_first_flush", "after_everything_compacted_away"])
    def test_probe_reads_nothing(self, state):
        tree = getattr(self, state)()
        assert tree.sstables() == []
        queries = [(5, 5), (0, 100), (9, 12)]
        result = tree.probe(queries, sst_stats=(stats := {}))
        assert result.num_queries == 3 and result.per_level == []
        assert result.blocks_read.tolist() == [0, 0, 0]
        assert result.missed_reads.tolist() == [0, 0, 0]
        assert stats == {}
        verdict = FilterLifecycle(tree).observe_epoch(queries, stats)
        assert verdict["monitored_ssts"] == 0
        with pytest.raises(ValueError, match="empty query range"):
            tree.probe([(7, 3)])
        with pytest.raises(ValueError, match="no SSTs"):
            tree.snapshot()


TIMELINE_ARGS = dict(
    num_epochs=4,
    writes_per_epoch=256,
    queries_per_epoch=256,
    preload=1024,
    shift_epoch=1,
    grace_epochs=1,
    design_queries=512,
    sst_keys=128,
    level0_runs=3,
    seed=19,
)


class TestTimelineBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_timeline_bench(**TIMELINE_ARGS)

    def test_gate_passes_and_actuator_fired(self, report):
        assert check_timeline_report(report) == []
        assert report["totals"]["adaptive"]["filters_rebuilt"] > 0

    def test_adaptive_beats_static_post_shift(self, report):
        shift = report["timeline"]["shift_epoch"]
        grace = report["timeline"]["grace_epochs"]
        for record in report["epochs"]:
            if record["epoch"] < shift + grace:
                continue
            assert (
                record["adaptive"]["probe"]["false_positive_reads"]
                < record["static"]["probe"]["false_positive_reads"]
            ), record["epoch"]

    def test_zero_missed_reads_and_consistent_lookups(self, report):
        for record in report["epochs"]:
            assert record["adaptive"]["probe"]["missed_reads"] == 0
            assert record["static"]["probe"]["missed_reads"] == 0
        assert report["integrity"]["lookup_consistent"] == {
            "adaptive": True,
            "static": True,
        }

    def test_width_64_lookups_stay_consistent(self):
        # The end-of-run check probes the user's keys; handing it stored
        # width-64 keys would encode them twice.
        report = run_timeline_bench(**dict(TIMELINE_ARGS, width=64))
        assert check_timeline_report(report) == []
        assert report["integrity"]["lookup_consistent"] == {
            "adaptive": True,
            "static": True,
        }

    def test_report_is_seed_deterministic(self, report):
        again = run_timeline_bench(**TIMELINE_ARGS)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_check_flags_a_doctored_report(self, report):
        doctored = json.loads(json.dumps(report))
        record = doctored["epochs"][-1]
        record["adaptive"]["probe"]["false_positive_reads"] = (
            record["static"]["probe"]["false_positive_reads"] + 1
        )
        doctored["epochs"][0]["static"]["probe"]["missed_reads"] = 2
        violations = check_timeline_report(doctored)
        assert any("missed reads" in v for v in violations)
        assert any("not strictly below" in v for v in violations)

    def test_cli_timeline_check_writes_report_and_metrics(self, tmp_path):
        out = tmp_path / "timeline.json"
        metrics_out = tmp_path / "metrics.json"
        code = main(
            [
                "--timeline", "--check",
                "--epochs", "4", "--writes-per-epoch", "256",
                "--queries-per-epoch", "256", "--preload", "1024",
                "--shift-epoch", "1", "--design-queries", "512",
                "--sst-keys", "128", "--level0-runs", "3", "--seed", "19",
                "--output", str(out),
                "--metrics-out", str(metrics_out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "timeline"
        payload = json.loads(metrics_out.read_text())
        assert payload["driver"] == "lsm_bench.timeline"
        counters = payload["metrics"]["counters"]
        # Compaction merges dispatch through the kernel registry.
        assert any(
            name.startswith("kernels.dispatch.") and name.endswith(".merge_runs")
            for name in counters
        )
        assert counters["lifecycle.filters_rebuilt"] > 0


class TestLookupProbeDispatch:
    """``lookup_many`` accepts raw iterables through coerce-style dispatch.

    Regression cluster for the pre-PR-10 probe path, which built
    ``np.array(probes, dtype=f"S{width//8}")`` directly: over-length byte
    probes were silently *truncated* — a probe for a key that cannot
    exist in the space could come back ``True`` — and representation
    mismatches surfaced as opaque numpy dtype errors.  The path now
    dispatches through ``probe_key_array``.
    """

    def _byte_tree(self):
        tree = OnlineLSMTree(40, sst_keys=32, memtable_capacity=16)
        for word in [b"ant", b"bee", b"cat", b"dove", b"eel", b"fox"]:
            tree.put(word)
        tree.flush()
        tree.put(b"gnu")  # stays buffered: exercises the memtable branch
        return tree

    def test_lookup_many_accepts_raw_str_and_bytes(self):
        tree = self._byte_tree()
        answers = tree.lookup_many(["ant", b"bee", "gnu", "yak", b"zz"])
        assert answers.tolist() == [True, True, True, False, False]

    def test_lookup_many_accepts_int_iterables_and_generators(self):
        tree = OnlineLSMTree(WIDTH, sst_keys=32, memtable_capacity=16)
        for key in [3, 900, 41_000]:
            tree.put(key)
        tree.flush()
        answers = tree.lookup_many(key for key in [3, 4, 900, 41_000])
        assert answers.tolist() == [True, False, True, True]

    def test_overlength_byte_probe_raises_instead_of_truncating(self):
        tree = self._byte_tree()  # 40-bit space: keys are at most 5 bytes
        with pytest.raises(ValueError, match="exceeds maximum 5"):
            tree.lookup_many([b"antelope"])
        # The 5-byte prefix of the rejected probe is absent: silent
        # truncation would have had nothing to collide with here, but
        # probing b"dovex" truncated to a stored key is the real hazard.
        with pytest.raises(ValueError, match="exceeds maximum 5"):
            tree.lookup_many([b"dove\x00x"])

    def test_representation_mismatch_raises_clearly(self):
        byte_tree = self._byte_tree()
        with pytest.raises(ValueError, match="integer probes against a byte-keyed"):
            byte_tree.lookup_many([17])
        int_tree = OnlineLSMTree(WIDTH, sst_keys=32, memtable_capacity=16)
        int_tree.put(5)
        int_tree.flush()
        with pytest.raises(ValueError, match="byte-keyed probes against an integer"):
            int_tree.lookup_many([b"abc"])

    def test_memtable_only_tree_still_detects_representation(self):
        tree = OnlineLSMTree(40, memtable_capacity=16)
        tree.put(b"ant")  # no flush: only the memtable knows the kind
        with pytest.raises(ValueError, match="integer probes against a byte-keyed"):
            tree.lookup_many([17])
        assert tree.lookup_many([b"ant", b"bee"]).tolist() == [True, False]

    def test_duplicate_probes_keep_positions(self):
        tree = self._byte_tree()
        answers = tree.lookup_many([b"cat", b"cat", b"nope", b"cat"])
        assert answers.tolist() == [True, True, False, True]

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**70])
    @pytest.mark.parametrize("flushed", [False, True])
    def test_out_of_range_integer_probes_raise(self, bad, flushed):
        # probe_key_array is the only range check on this path: with the
        # memtable emptied by flush() no per-key MemTable.get runs.
        tree = OnlineLSMTree(WIDTH, sst_keys=32, memtable_capacity=16)
        tree.put(7)
        if flushed:
            tree.flush()
            assert tree.memtable.is_empty
        with pytest.raises(ValueError, match=f"key {bad} outside the 32-bit key space"):
            tree.lookup_many([7, bad])
        assert tree.lookup_many([7, 2**32 - 1]).tolist() == [True, False]
