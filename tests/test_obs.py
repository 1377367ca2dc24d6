"""Tests for the observability substrate: metrics, probe traces, drift.

Three contracts are pinned here:

* the :mod:`repro.obs.metrics` registry is internally consistent and its
  exports validate against their own schema checker;
* a :class:`~repro.obs.trace.ProbeTrace` reconciles *exactly* against the
  :class:`~repro.lsm.cost.ProbeResult` of the probe it observed — even
  when the ring buffer dropped most events;
* the :class:`~repro.obs.drift.DriftMonitor` is deterministic, stays quiet
  when the live queries match the design sample, and flags a forced
  query-mix shift — and disabled instrumentation leaves the hot paths
  byte-identical in output and unmeasurably close in time.
"""

import json
import time

import numpy as np
import pytest

from repro.api import FilterSpec, Workload, build_filter
from repro.filters.base import TrieOracle
from repro.lsm import LSMTree
from repro.obs.drift import DriftMonitor, predicted_tree_fpr
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    timed,
    validate_metrics_payload,
)
from repro.obs.trace import TRACE_FIELDS, ProbeTrace
from repro.workloads.batch import QueryBatch
from repro.workloads.generators import QUERY_FAMILIES

WIDTH = 32


def held_out(workload: Workload, count: int, seed: int, family: str) -> QueryBatch:
    import random

    pairs = QUERY_FAMILIES[family](
        random.Random(seed), workload.keys.as_list(), count, workload.width
    )
    return QueryBatch.from_pairs(pairs, workload.width)


class TestMetricsRegistry:
    def test_counters_accumulate_and_reject_decrease(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 2.5)
        assert registry.counter("a.b").value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.inc("a.b", -1)

    def test_gauges_are_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 4)
        registry.set_gauge("g", 7.5)
        assert registry.gauge("g").value == 7.5

    def test_histogram_places_samples_in_the_right_buckets(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            hist.observe(value)
        # <=1, <=10, +inf overflow
        assert hist.counts == [2, 2, 1]
        assert hist.count == 5
        assert hist.total == pytest.approx(27.5)
        payload = hist.to_dict()
        assert len(payload["counts"]) == len(payload["buckets"]) + 1

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_name_reuse_across_kinds_is_an_error(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="different kind"):
            registry.set_gauge("x", 1.0)
        with pytest.raises(ValueError, match="different kind"):
            registry.observe("x", 1.0)

    def test_timer_observes_elapsed_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            time.sleep(0.01)
        hist = registry.histogram("t")
        assert hist.count == 1
        assert hist.total >= 0.005

    def test_timed_is_a_noop_without_a_registry(self):
        with timed(None, "t"):
            pass  # must not raise, must not record anywhere

    def test_to_dict_round_trips_through_json_and_validates(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 0.02)
        payload = json.loads(json.dumps(registry.to_dict()))
        assert validate_metrics_payload(payload) == []
        assert payload["counters"]["c"] == 3
        assert payload["histograms"]["h"]["count"] == 1

    def test_prometheus_export_has_the_conventional_shapes(self):
        registry = MetricsRegistry()
        registry.inc("build.filters", 2)
        registry.set_gauge("design.last_total_bits", 512)
        registry.observe("build.seconds", 0.5, buckets=(1.0, 10.0))
        registry.observe("build.seconds", 5.0, buckets=(1.0, 10.0))
        text = registry.to_prometheus()
        assert "build_filters_total 2" in text
        assert "design_last_total_bits 512" in text
        # Cumulative bucket counts with le labels, then +Inf, sum, count.
        assert 'build_seconds_bucket{le="1"} 1' in text
        assert 'build_seconds_bucket{le="10"} 2' in text
        assert 'build_seconds_bucket{le="+Inf"} 2' in text
        assert "build_seconds_count 2" in text

    def test_validate_catches_malformed_payloads(self):
        assert validate_metrics_payload({}) != []
        bad_counter = {
            "counters": {"c": -1},
            "gauges": {},
            "histograms": {},
        }
        assert any("negative" in p for p in validate_metrics_payload(bad_counter))
        bad_hist = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "h": {"buckets": [1.0], "counts": [1, 2], "count": 5, "sum": 1.0}
            },
        }
        assert any("counts sum" in p for p in validate_metrics_payload(bad_hist))
        short_hist = {
            "counters": {},
            "gauges": {},
            "histograms": {"h": {"buckets": [1.0, 2.0], "counts": [1], "count": 1,
                                 "sum": 0.5}},
        }
        assert any("buckets + 1" in p for p in validate_metrics_payload(short_hist))

    def test_default_time_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(set(DEFAULT_TIME_BUCKETS))


@pytest.fixture(scope="module")
def workload() -> Workload:
    return Workload.generate(num_keys=2000, num_queries=900, width=WIDTH, seed=17)


@pytest.fixture(scope="module")
def filtered_tree(workload) -> LSMTree:
    tree = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=17)
    tree.attach_filters(FilterSpec("proteus", 12.0), workload)
    return tree


class TestProbeTrace:
    def test_totals_reconcile_exactly_with_the_probe_result(
        self, filtered_tree, workload
    ):
        trace = ProbeTrace()
        result = filtered_tree.probe(workload.queries, trace=trace)
        assert trace.reconcile(result) == []
        # Spot-check one field end to end, not just through reconcile().
        assert trace.totals["blocks_read"] == int(result.blocks_read.sum())
        assert trace.num_events == int(result.candidates.sum())
        assert trace.dropped == 0

    def test_ring_buffer_drops_events_but_keeps_totals_exact(
        self, filtered_tree, workload
    ):
        trace = ProbeTrace(capacity=64)
        result = filtered_tree.probe(workload.queries, trace=trace)
        assert trace.dropped == trace.num_events - 64
        assert trace.dropped > 0
        assert trace.reconcile(result) == []  # totals never evicted

    def test_reconcile_reports_every_mismatching_field(
        self, filtered_tree, workload
    ):
        trace = ProbeTrace()
        result = filtered_tree.probe(workload.queries, trace=trace)
        result.blocks_read[0] += 1
        result.candidates[0] += 2
        mismatches = trace.reconcile(result)
        assert len(mismatches) == 2
        assert any("blocks_read" in m for m in mismatches)
        assert any("candidates" in m for m in mismatches)

    def test_to_dict_caps_events_and_carries_all_fields(
        self, filtered_tree, workload
    ):
        trace = ProbeTrace()
        filtered_tree.probe(workload.queries, trace=trace)
        payload = trace.to_dict(max_events=8)
        assert len(payload["events"]) == 8
        assert set(payload["totals"]) == set(TRACE_FIELDS)
        assert payload["num_events"] == trace.num_events
        assert payload["capacity"] == trace.capacity

    def test_tracing_does_not_change_the_probe_result(
        self, filtered_tree, workload
    ):
        plain = filtered_tree.probe(workload.queries)
        traced = filtered_tree.probe(workload.queries, trace=ProbeTrace())
        for field in TRACE_FIELDS:
            assert (getattr(plain, field) == getattr(traced, field)).all()


class TestDriftMonitor:
    def test_rejects_invalid_construction_and_observations(self):
        with pytest.raises(ValueError):
            DriftMonitor(predicted_fpr=1.5)
        with pytest.raises(ValueError):
            DriftMonitor(0.01, window=0)
        with pytest.raises(ValueError):
            DriftMonitor(0.01, min_empty=0)
        monitor = DriftMonitor(0.01)
        with pytest.raises(ValueError, match="exceed"):
            monitor.observe(5, 3)
        with pytest.raises(ValueError):
            monitor.observe(-1, 3)

    def test_identical_observation_sequences_are_deterministic(self):
        # Pure arithmetic: two monitors fed the same seeded stream agree
        # report for report, and in their final serialised state.
        rng = np.random.default_rng(99)
        stream = [(int(fp), 100 + int(fp)) for fp in rng.integers(0, 20, size=40)]
        first = DriftMonitor(0.05, window=6, min_empty=200)
        second = DriftMonitor(0.05, window=6, min_empty=200)
        for fp, empty in stream:
            assert first.observe(fp, empty) == second.observe(fp, empty)
        assert first.to_dict() == second.to_dict()

    def test_warm_up_guard_suppresses_early_flags(self):
        monitor = DriftMonitor(0.01, min_empty=100)
        report = monitor.observe(30, 50)  # 60% observed, but only 50 trials
        assert not report.warmed_up
        assert not report.drifted
        report = monitor.observe(30, 50)  # window now holds 100 trials
        assert report.warmed_up
        assert report.drifted

    def test_window_tracks_the_current_mix_not_the_lifetime_mean(self):
        monitor = DriftMonitor(0.5, window=2, abs_threshold=0.1, min_empty=10)
        for _ in range(50):
            monitor.observe(50, 100)  # long quiet history at the prediction
        assert not monitor.drifted
        monitor.observe(100, 100)
        report = monitor.observe(100, 100)  # window now all post-shift
        assert report.observed_fpr == 1.0
        assert report.drifted

    def test_reset_clears_the_window_and_repins_the_prediction(self):
        monitor = DriftMonitor(0.01, min_empty=10)
        monitor.observe(50, 100)
        assert monitor.drifted
        monitor.reset(predicted_fpr=0.5)
        assert monitor.last_report is None
        assert not monitor.drifted
        assert monitor.predicted_fpr == 0.5
        assert monitor.num_batches == 0

    def test_no_drift_on_the_training_query_mix(self, workload):
        # Graded on held-out batches from the *same* family it designed
        # against, the filter's observed FPR stays inside the allowance:
        # the monitor never cries wolf on the mix it was built for.
        filt = build_filter(FilterSpec("proteus", 14.0), workload.keys, workload)
        oracle = TrieOracle(workload.keys.keys, WIDTH)
        monitor = DriftMonitor(filt.expected_fpr, window=4, min_empty=64)
        for seed in range(60, 66):
            batch = held_out(workload, 600, seed, "mixed")
            report = monitor.observe_answers(
                filt.may_intersect_many(batch), oracle.may_intersect_many(batch)
            )
        assert report.warmed_up
        assert monitor.num_drift_flags == 0

    def test_forced_query_mix_shift_is_flagged(self):
        # Train on easy uniform ranges, then serve correlated (near-key)
        # ranges: the design never saw the hard mix, its prediction is far
        # too optimistic, and the monitor must flag the divergence.
        trained = Workload.generate(
            num_keys=2000, num_queries=900, width=WIDTH, seed=21,
            query_family="uniform",
        )
        filt = build_filter(FilterSpec("proteus", 14.0), trained.keys, trained)
        oracle = TrieOracle(trained.keys.keys, WIDTH)
        monitor = DriftMonitor(filt.expected_fpr, window=4, min_empty=64)
        for seed in range(70, 74):
            batch = held_out(trained, 600, seed, "correlated")
            monitor.observe_answers(
                filt.may_intersect_many(batch), oracle.may_intersect_many(batch)
            )
        assert monitor.drifted
        assert monitor.observed_fpr > monitor.predicted_fpr

    def test_observe_result_grades_an_lsm_probe(self, filtered_tree, workload):
        predicted = predicted_tree_fpr(filtered_tree)
        assert predicted is not None and 0.0 < predicted < 1.0
        result = filtered_tree.probe(workload.queries)
        monitor = DriftMonitor(predicted)
        report = monitor.observe_result(result, num_ssts=filtered_tree.num_ssts)
        assert report.window_empty == (
            result.num_queries * filtered_tree.num_ssts
            - int(result.required_reads.sum())
        )
        # Same tree, same mix it designed for: no drift.
        assert not report.drifted

    def test_predicted_tree_fpr_is_none_without_predictions(self, workload):
        bare = LSMTree.build(workload.keys, sst_keys=256, fanout=4, seed=17)
        assert predicted_tree_fpr(bare) is None
        bare.attach_filters(FilterSpec("bloom", 10.0), workload)
        assert predicted_tree_fpr(bare) is None  # bloom has no expected_fpr


class TestDisabledOverhead:
    def test_untraced_probe_is_byte_identical_and_not_slower(
        self, filtered_tree, workload
    ):
        # The overhead contract: with instrumentation off (the defaults),
        # the probe path pays one `is None` check per level.
        # Results must be identical; wall-clock must be statistically
        # indistinguishable (min-of-5, generous 1.5x bound for CI noise).
        batch = workload.queries
        baseline = filtered_tree.probe(batch)
        explicit = filtered_tree.probe(batch, trace=None)
        for field in TRACE_FIELDS:
            assert (getattr(baseline, field) == getattr(explicit, field)).all()

        def best_of(repeats, fn):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        plain = best_of(5, lambda: filtered_tree.probe(batch))
        disabled = best_of(5, lambda: filtered_tree.probe(batch, trace=None))
        assert disabled <= plain * 1.5 + 1e-3

    def test_uninstrumented_build_is_unchanged_by_the_metrics_plumbing(
        self, workload
    ):
        # metrics=None must leave the chosen design and the answers exactly
        # as they were before the instrumentation existed.
        plain = build_filter(FilterSpec("proteus", 12.0), workload.keys, workload)
        registry = MetricsRegistry()
        instrumented = build_filter(
            FilterSpec("proteus", 12.0), workload.keys, workload, metrics=registry
        )
        assert plain.design == instrumented.design
        batch = held_out(workload, 500, 31, "mixed")
        assert (
            plain.may_intersect_many(batch)
            == instrumented.may_intersect_many(batch)
        ).all()
        # And the registry actually saw the build it was given.
        counters = registry.to_dict()["counters"]
        assert counters["build.filters"] == 1
        assert counters["design.searches"] == 1
        assert counters["cpfpr.evaluations"] > 0
