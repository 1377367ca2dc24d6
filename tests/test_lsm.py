"""Tests for the LSM substrate: geometry, fences, filters, cost accounting."""

import json

import numpy as np
import pytest

from repro.api import FilterSpec, Workload, build_filter
from repro.evaluation.lsm_bench import check_report, main, run_lsm_bench
from repro.lsm import CostModel, LSMTree, OnlineLSMTree, ProbeResult, SSTable
from repro.obs.trace import TRACE_FIELDS
from repro.workloads import EncodedKeySet, QueryBatch
from scalar_reference import padded_int

WIDTH = 32


@pytest.fixture(scope="module")
def workload() -> Workload:
    return Workload.generate(num_keys=3000, num_queries=1200, width=WIDTH, seed=11)


@pytest.fixture(scope="module")
def tree(workload) -> LSMTree:
    return LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=11)


class TestGeometry:
    def test_levels_follow_leveled_capacities(self, tree):
        # 3000 keys at 256 keys/SST, fanout 4: 256 + 1024 + remainder.
        sizes = [sum(len(sst) for sst in level) for level in tree.levels]
        assert sizes == [256, 1024, 1720]
        assert [len(level) for level in tree.levels] == [1, 4, 7]
        assert tree.num_keys == 3000

    def test_every_key_lands_in_exactly_one_sst(self, tree, workload):
        seen = np.concatenate([sst.keys.keys for sst in tree.sstables()])
        assert sorted(seen.tolist()) == workload.keys.as_list()

    def test_ssts_within_a_level_are_disjoint_and_ordered(self, tree):
        for level in tree.levels:
            for left, right in zip(level, level[1:]):
                assert left.max_key < right.min_key

    def test_sst_slices_are_zero_copy_views(self, tree):
        for level in tree.levels:
            if len(level) < 2:
                continue
            base = level[0].keys.keys.base
            assert base is not None
            for sst in level:
                assert sst.keys.keys.base is base

    def test_build_is_seed_deterministic(self, workload):
        one = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=11)
        two = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=11)
        for left, right in zip(one.sstables(), two.sstables()):
            assert left.keys.keys.tolist() == right.keys.keys.tolist()

    def test_build_rejects_bad_inputs(self, workload):
        with pytest.raises(TypeError):
            LSMTree.build([1, 2, 3])
        with pytest.raises(ValueError):
            LSMTree.build(EncodedKeySet([], WIDTH))
        with pytest.raises(ValueError):
            LSMTree.build(workload.keys, sst_keys=0)
        with pytest.raises(ValueError):
            LSMTree.build(workload.keys, fanout=0)

    def test_sstable_rejects_empty_and_width_mismatch(self, workload):
        with pytest.raises(ValueError):
            SSTable(0, 0, EncodedKeySet([], WIDTH))
        sst = SSTable(0, 0, EncodedKeySet([1, 2, 3], WIDTH))
        narrow = build_filter(FilterSpec("bloom", 8.0, {"width": 8}), [1, 2, 3])
        with pytest.raises(ValueError):
            sst.attach_filter(narrow)


class TestEmptyLevels:
    """Regression: a level compacted away entirely (empty list between
    populated levels) used to break fence construction — the dtype probe
    indexed ``level[0]`` on a level with no SSTs."""

    def _tree_with_gap(self) -> tuple[LSMTree, list[int], list[int]]:
        shallow = list(range(100, 160))
        deep = list(range(1000, 1100))
        levels = [
            [SSTable(0, 0, EncodedKeySet(shallow, WIDTH))],
            [],  # level 1 merged wholesale into level 2, not yet refilled
            [
                SSTable(2, 0, EncodedKeySet(deep[:50], WIDTH)),
                SSTable(2, 1, EncodedKeySet(deep[50:], WIDTH)),
            ],
        ]
        return LSMTree(levels, WIDTH), shallow, deep

    def test_probe_routes_around_the_gap(self):
        tree, shallow, deep = self._tree_with_gap()
        points = QueryBatch.points(shallow + deep, WIDTH)
        result = tree.probe(points)
        assert int(result.missed_reads.sum()) == 0
        assert (result.required_reads == 1).all()
        # The gap level contributes nothing — not even candidates.
        assert result.per_level[1].candidates == 0
        ranges = QueryBatch.from_pairs([(0, 1 << 20), (500, 900)], WIDTH)
        spanning = tree.probe(ranges)
        assert int(spanning.required_reads[0]) == 3  # all three SSTs match
        assert int(spanning.required_reads[1]) == 0  # falls in the key gap

    def test_filters_attach_across_the_gap(self, workload):
        tree, shallow, deep = self._tree_with_gap()
        tree.attach_filters(FilterSpec("bloom", 10.0), workload)
        assert tree.filter_bits_per_level()[1] == 0
        result = tree.probe(QueryBatch.points(shallow + deep, WIDTH))
        assert int(result.missed_reads.sum()) == 0

    def test_fully_empty_tree_is_still_rejected(self):
        with pytest.raises(ValueError):
            LSMTree([], WIDTH)
        with pytest.raises(ValueError):
            LSMTree([[], []], WIDTH)


class TestLevelOrder:
    """Fence routing (and the level layout's interval gate) assume each
    level's SSTs are sorted and disjoint; a level that is not is rejected
    instead of silently routing probes past the SST that holds the key."""

    @staticmethod
    def _sst(index, keys):
        return SSTable(0, index, EncodedKeySet(keys, WIDTH))

    def test_out_of_order_level_is_rejected(self):
        level = [self._sst(0, range(100, 110)), self._sst(1, range(0, 10))]
        with pytest.raises(ValueError, match="not sorted and disjoint"):
            LSMTree([level], WIDTH)

    def test_overlapping_level_is_rejected(self):
        level = [self._sst(0, range(0, 10)), self._sst(1, range(9, 20))]
        with pytest.raises(ValueError, match="not sorted and disjoint"):
            LSMTree([level], WIDTH)

    def test_adjacent_disjoint_level_is_accepted(self):
        level = [self._sst(0, range(0, 10)), self._sst(1, range(10, 20))]
        tree = LSMTree([level], WIDTH)
        result = tree.probe(QueryBatch.points([9, 10], WIDTH))
        assert result.required_reads.tolist() == [1, 1]


class TestFencePruning:
    def test_candidates_match_brute_force_fence_overlap(self, tree, workload):
        batch = workload.queries
        result = tree.probe(batch)
        ssts = tree.sstables()
        for i, (lo, hi) in enumerate(batch.pairs()):
            expected = sum(1 for sst in ssts if sst.overlaps(lo, hi))
            assert int(result.candidates[i]) == expected

    def test_fences_never_prune_a_matching_sst(self, tree, workload):
        # Every SST that truly holds a key of [lo, hi] must survive its
        # fences — pruning is only ever exact.
        result = tree.probe(workload.queries)
        for i, (lo, hi) in enumerate(workload.queries.pairs()):
            truly = sum(
                1
                for sst in tree.sstables()
                if bool(
                    sst.matches_many(
                        np.array([lo], dtype=np.int64), np.array([hi], dtype=np.int64)
                    )[0]
                )
            )
            assert int(result.required_reads[i]) == truly
            assert int(result.candidates[i]) >= truly

    def test_unfiltered_probe_reads_every_candidate(self, tree, workload):
        tree.clear_filters()
        result = tree.probe(workload.queries)
        assert (result.blocks_read == result.candidates).all()
        assert result.total_filter_probes() == 0


class TestPerSstFilters:
    @pytest.fixture(scope="class")
    def filtered_tree(self, workload):
        filtered = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=11)
        filtered.attach_filters(FilterSpec("proteus", 12.0), workload)
        return filtered

    def test_zero_false_negatives_through_the_tree(self, filtered_tree, workload):
        # Every present key's point probe must reach its SST: zero missed
        # reads, and at least one required (and charged) read per key.
        points = QueryBatch.points(workload.keys.as_list(), WIDTH)
        result = filtered_tree.probe(points)
        assert int(result.missed_reads.sum()) == 0
        assert (result.required_reads >= 1).all()
        assert (result.blocks_read >= result.required_reads).all()

    def test_zero_false_negatives_for_every_family(self, workload):
        small = Workload.generate(num_keys=600, num_queries=400, width=WIDTH, seed=3)
        points = QueryBatch.points(small.keys.as_list(), WIDTH)
        for family in ("bloom", "prefix_bloom", "surf", "rosetta", "1pbf", "2pbf"):
            little = LSMTree.build(small.keys, sst_keys=128, fanout=4, seed=3)
            little.attach_filters(FilterSpec(family, 12.0), small)
            result = little.probe(points)
            assert int(result.missed_reads.sum()) == 0, family
            assert (result.required_reads >= 1).all(), family

    def test_filtered_reads_are_a_subset_of_candidates(self, filtered_tree, workload):
        result = filtered_tree.probe(workload.queries)
        assert (result.blocks_read <= result.candidates).all()
        assert (result.filter_probes == result.candidates).all()

    def test_per_level_stats_reconcile_with_per_query_arrays(
        self, filtered_tree, workload
    ):
        # The two accountings of one probe — per-query arrays and per-level
        # aggregates — must agree exactly, field by field: every routed
        # (query, SST) pair is counted once on each side.
        result = filtered_tree.probe(workload.queries)
        fields = (
            "candidates",
            "filter_probes",
            "blocks_read",
            "required_reads",
            "false_positive_reads",
            "missed_reads",
        )
        for field in fields:
            per_query_total = int(getattr(result, field).sum())
            per_level_total = sum(
                getattr(stats, field) for stats in result.per_level
            )
            assert per_query_total == per_level_total, field
        # And the unfiltered tree agrees too (filter_probes identically 0).
        bare = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=11)
        bare_result = bare.probe(workload.queries)
        for field in fields:
            assert int(getattr(bare_result, field).sum()) == sum(
                getattr(stats, field) for stats in bare_result.per_level
            ), field

    def test_per_level_memory_sums_match_each_filter(self, filtered_tree):
        per_level = filtered_tree.filter_bits_per_level()
        for level, expected in zip(filtered_tree.levels, per_level):
            assert expected == sum(sst.filter.size_in_bits() for sst in level)
        assert filtered_tree.filter_size_bits() == sum(per_level)

    def test_size_breakdown_sums_to_size_in_bits(self, filtered_tree):
        for sst in filtered_tree.sstables():
            breakdown = sst.filter.size_breakdown()
            assert sum(breakdown.values()) == sst.filter.size_in_bits()

    def test_equal_policy_preserves_the_global_bit_grant(self, workload):
        equal = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=11)
        equal.attach_filters(FilterSpec("bloom", 12.0), workload, policy="equal")
        specs = [sst.spec for sst in equal.sstables()]
        granted = sum(
            spec.bits_per_key * len(sst)
            for spec, sst in zip(specs, equal.sstables())
        )
        assert granted == pytest.approx(12.0 * workload.num_keys)
        # Equal split: every SST asked for the same total bits.
        totals = {round(spec.bits_per_key * len(sst)) for spec, sst in zip(specs, equal.sstables())}
        assert len(totals) <= 2  # rounding may straddle one bit

    def test_clear_filters_restores_the_baseline(self, workload):
        tree = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=11)
        tree.attach_filters(FilterSpec("bloom", 8.0), workload)
        assert tree.filter_size_bits() > 0
        tree.clear_filters()
        assert tree.filter_size_bits() == 0
        result = tree.probe(workload.queries)
        assert (result.blocks_read == result.candidates).all()


class TestCostModel:
    def test_io_cost_prices_blocks_and_probes(self):
        model = CostModel(block_read_cost=2.0, filter_probe_cost=0.25)
        assert model.io_cost(blocks_read=10, filter_probes=8) == 22.0
        with pytest.raises(ValueError):
            CostModel(block_read_cost=-1.0)

    def test_from_dict_round_trips_to_dict(self):
        model = CostModel(block_read_cost=2.0, filter_probe_cost=0.25)
        assert CostModel.from_dict(model.to_dict()) == model
        # Missing rates fall back to the dataclass defaults.
        assert CostModel.from_dict({}) == CostModel()
        assert CostModel.from_dict({"block_read_cost": 3.0}) == CostModel(3.0, 0.0)

    def test_from_dict_rejects_unknown_and_negative_fields(self):
        with pytest.raises(ValueError, match="blok_read_cost"):
            CostModel.from_dict({"blok_read_cost": 1.0})
        with pytest.raises(ValueError):
            CostModel.from_dict({"filter_probe_cost": -0.5})

    def test_probe_result_totals_and_empty_mask(self):
        result = ProbeResult.zeros(4, 2)
        result.blocks_read[:] = [2, 0, 1, 0]
        result.required_reads[:] = [1, 0, 0, 0]
        result.filter_probes[:] = [3, 1, 2, 1]
        assert result.total_blocks_read() == 3
        assert result.empty_query_mask().tolist() == [False, True, True, True]
        summary = result.to_dict(CostModel(filter_probe_cost=1.0))
        assert summary["io_cost"] == 3 + 7
        assert summary["num_empty_queries"] == 3

    def test_probe_on_empty_batch_is_all_zero(self, tree):
        result = tree.probe(QueryBatch.from_pairs([], WIDTH))
        assert result.num_queries == 0
        assert result.total_blocks_read() == 0


def _probe_fields(result: ProbeResult) -> dict:
    """Every per-query array and per-level total of a probe result."""
    fields = {name: getattr(result, name).tolist() for name in TRACE_FIELDS}
    fields["per_level"] = [stats.to_dict() for stats in result.per_level]
    return fields


class TestProbeRepresentation:
    """A tree answers bounds in either key representation alike: byte bounds
    and their padded big-endian integers route and read the same SSTs."""

    WORDS = ["ab", "cd", "ef", "gh", "ij", "kl"]
    BYTE_PAIRS = [(b"ab", b"cd"), (b"a", b"z"), (b"gh", b"gh")]

    def _byte_tree(self, kind: str):
        words = Workload(self.WORDS, [("ab", "cd"), ("b", "c")])
        spec = FilterSpec("proteus", 12)
        if kind == "static":
            tree = LSMTree.build(words.keys, sst_keys=2)
            tree.attach_filters(spec, words)
            return tree
        tree = OnlineLSMTree(words.width, spec, words.queries, sst_keys=2)
        for word in self.WORDS:
            tree.put(word)
        tree.flush()
        return tree

    @pytest.mark.parametrize("kind", ["static", "online"])
    def test_byte_tree_answers_padded_integer_bounds(self, kind):
        tree = self._byte_tree(kind)
        int_pairs = [
            (padded_int(lo, tree.width), padded_int(hi, tree.width)) for lo, hi in self.BYTE_PAIRS
        ]
        by_bytes = _probe_fields(tree.probe(self.BYTE_PAIRS))
        assert by_bytes["required_reads"] == [1, 3, 1]
        for queries in (int_pairs, QueryBatch.from_pairs(int_pairs, tree.width)):
            assert _probe_fields(tree.probe(queries)) == by_bytes

    def test_integer_tree_answers_byte_bounds(self):
        w = Workload.generate(300, 100, 32, seed=5)
        tree = LSMTree.build(w.keys, sst_keys=64)
        tree.attach_filters(FilterSpec("proteus", 12), w)
        keys = w.keys.as_list()[::37]
        int_pairs = [(key, key) for key in keys] + [(keys[0], keys[2] + 5)]
        byte_pairs = [(lo.to_bytes(4, "big"), hi.to_bytes(4, "big")) for lo, hi in int_pairs]
        by_ints = _probe_fields(tree.probe(int_pairs))
        assert min(by_ints["required_reads"]) >= 1
        assert _probe_fields(tree.probe(byte_pairs)) == by_ints


class TestLsmBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_lsm_bench(
            families=("bloom", "proteus"),
            num_keys=1200, num_queries=500, sst_keys=128, seed=5,
        )

    def test_report_is_seed_deterministic(self, report):
        again = run_lsm_bench(
            families=("bloom", "proteus"),
            num_keys=1200, num_queries=500, sst_keys=128, seed=5,
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_filtered_configs_beat_the_no_filter_baseline(self, report):
        assert check_report(report) == []
        baseline = report["configs"]["no_filter"]["probe"]
        for name in ("bloom", "proteus"):
            probe = report["configs"][name]["probe"]
            assert probe["blocks_read"] <= baseline["blocks_read"]
            assert probe["false_positive_reads"] < baseline["false_positive_reads"]

    def test_report_memory_accounting_is_consistent(self, report):
        for name in ("bloom", "proteus"):
            config = report["configs"][name]
            assert sum(config["filter_bits_per_level"]) == config["filter_bits"]
            assert config["filter_bits_per_key"] == pytest.approx(
                config["filter_bits"] / report["tree"]["num_keys"]
            )

    def test_check_report_flags_violations(self, report):
        broken = json.loads(json.dumps(report))
        broken["configs"]["bloom"]["probe"]["blocks_read"] = (
            broken["configs"]["no_filter"]["probe"]["blocks_read"] + 1
        )
        broken["configs"]["proteus"]["probe"]["false_positive_reads"] = 10**9
        flagged = check_report(broken)
        assert any("bloom: blocks_read" in line for line in flagged)
        assert any("proteus" in line for line in flagged)

    def test_budget_free_family_is_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            run_lsm_bench(families=("oracle",), num_keys=200, num_queries=100)

    def test_cli_writes_report_and_checks(self, tmp_path):
        output = tmp_path / "lsm.json"
        code = main(
            [
                "--keys", "800", "--queries", "300", "--sst-keys", "128",
                "--families", "bloom,proteus", "--check",
                "--output", str(output),
            ]
        )
        assert code == 0
        written = json.loads(output.read_text())
        assert set(written["configs"]) == {"no_filter", "bloom", "proteus"}

    def test_instrumented_run_grows_metrics_trace_and_drift_sections(self):
        from repro.obs.metrics import MetricsRegistry, validate_metrics_payload

        registry = MetricsRegistry()
        report = run_lsm_bench(
            families=("bloom", "proteus"),
            num_keys=1200, num_queries=500, sst_keys=128, seed=5,
            metrics=registry, trace_sample=100, drift_batches=4,
        )
        assert validate_metrics_payload(report["metrics"]) == []
        counters = report["metrics"]["counters"]
        assert counters["build.filters"] == counters["attach.ssts"]
        assert counters["probe.configs"] == 3  # no_filter + two families
        for name in ("no_filter", "bloom", "proteus"):
            trace = report["configs"][name]["trace"]
            assert trace["reconciled"] is True
            assert trace["num_queries"] == 100
        # Only families with a CPFPR prediction get a drift section.
        assert "drift" not in report["configs"]["bloom"]
        drift = report["configs"]["proteus"]["drift"]
        assert drift["num_batches"] == 4
        assert 0.0 <= drift["predicted_fpr"] <= 1.0

    def test_instrumentation_does_not_change_the_report(self):
        from repro.obs.metrics import MetricsRegistry

        plain = run_lsm_bench(
            families=("proteus",), num_keys=800, num_queries=300,
            sst_keys=128, seed=7,
        )
        instrumented = run_lsm_bench(
            families=("proteus",), num_keys=800, num_queries=300,
            sst_keys=128, seed=7,
            metrics=MetricsRegistry(), trace_sample=50, drift_batches=4,
        )
        instrumented.pop("metrics")
        # Drift rides on the probe result and runs by default; traces only
        # appear when sampled.  Strip both overlays from both reports — the
        # measurements underneath must be byte-identical.
        for report in (plain, instrumented):
            for config in report["configs"].values():
                config.pop("trace", None)
                config.pop("drift", None)
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            instrumented, sort_keys=True
        )

    def test_cli_writes_validating_metrics_payload(self, tmp_path):
        from repro.obs.metrics import validate_metrics_payload

        metrics_out = tmp_path / "metrics.json"
        code = main(
            [
                "--keys", "800", "--queries", "300", "--sst-keys", "128",
                "--families", "proteus",
                "--metrics-out", str(metrics_out),
                "--trace-sample", "50",
            ]
        )
        assert code == 0
        payload = json.loads(metrics_out.read_text())
        assert payload["driver"] == "lsm_bench"
        assert validate_metrics_payload(payload["metrics"]) == []
        assert payload["traces"]["proteus"]["reconciled"] is True
        assert "proteus" in payload["drift"]
        assert "build_filters_total" in payload["prometheus"]
