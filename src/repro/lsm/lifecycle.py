"""The closed filter-lifecycle loop: per-SST drift sensing → redesign.

:class:`repro.obs.drift.DriftMonitor` is the sensor; this module is the
actuator the ROADMAP left open.  :class:`FilterLifecycle` watches an
:class:`~repro.lsm.online.OnlineLSMTree` at per-SST granularity: each
filtered SST whose filter exposes a CPFPR prediction (``expected_fpr``)
gets its own rolling monitor, fed from the per-SST probe accounting
(:class:`~repro.lsm.cost.SstStats`) that :meth:`LSMTree.probe` collects.
When a window flags divergence — the live query mix has detached from the
sample the filter self-designed against — the loop closes:

1. a fresh :class:`~repro.workloads.batch.QueryBatch` is drawn from the
   lifecycle's **rolling query sample** (the most recent live queries,
   recorded as they are probed);
2. the tree's shared design sample is swapped
   (:meth:`~repro.lsm.online.OnlineLSMTree.set_design_queries`), so
   subsequent flush/compaction builds also design against the current
   mix, not the stale one;
3. the flagged SST re-runs design at its *unchanged* budget grant
   (``build_filter(sst.spec, sst.keys, fresh_workload)``) and the rebuilt
   filter is swapped in place — no compaction, no key movement;
4. the SST's monitor is re-armed against the new design's prediction.

SSTs compacted away between epochs take their monitors with them (the
replacement tables self-design at build time from the then-current
sample, so they start in-model).  Everything is pure arithmetic over the
observation stream — replaying the same epochs reproduces the same
rebuild schedule byte-for-byte.
"""

from __future__ import annotations

from collections import deque

from repro.api import Workload, build_filter
from repro.lsm.cost import SstStats
from repro.lsm.online import OnlineLSMTree
from repro.lsm.sstable import SSTable
from repro.obs.drift import DriftMonitor, DriftReport
from repro.workloads.batch import QueryBatch, coerce_query_batch

__all__ = ["FilterLifecycle"]

#: Default rolling-sample capacity in queries.
DEFAULT_ROLLING_QUERIES = 2048


class FilterLifecycle:
    """Per-SST drift monitors wired to in-place filter redesign."""

    def __init__(
        self,
        tree: OnlineLSMTree,
        window: int = 8,
        abs_threshold: float = 0.05,
        rel_threshold: float = 0.5,
        min_empty: int = 64,
        rolling_queries: int = DEFAULT_ROLLING_QUERIES,
        metrics=None,
    ):
        if rolling_queries < 1:
            raise ValueError("rolling_queries must hold at least 1 query")
        self.tree = tree
        self.window = window
        self.abs_threshold = abs_threshold
        self.rel_threshold = rel_threshold
        self.min_empty = min_empty
        self.metrics = metrics
        self._monitors: dict[SSTable, DriftMonitor] = {}
        self._flagged: set[SSTable] = set()
        self._rolling: deque[tuple[int, int]] = deque(maxlen=rolling_queries)
        self.stats = {
            "epochs": 0,
            "drift_flags": 0,
            "filters_rebuilt": 0,
            "monitors_pruned": 0,
        }

    # ------------------------------------------------------------------ #
    # Sensing                                                            #
    # ------------------------------------------------------------------ #

    def record_queries(self, queries) -> None:
        """Fold a probed batch into the rolling design sample (newest kept).

        The sample holds the user's bounds (padded big integers for byte
        keys), so :meth:`rolling_sample` encodes each query exactly once.
        """
        batch = coerce_query_batch(queries, self.tree.width)
        self._rolling.extend(batch.pairs())

    def rolling_sample(self) -> QueryBatch | None:
        """The rolling sample as a design-ready batch (None while empty)."""
        if not self._rolling:
            return None
        return coerce_query_batch(list(self._rolling), self.tree.width)

    def _monitor_for(self, sst: SSTable) -> DriftMonitor | None:
        """The SST's monitor, created lazily; None when it has no prediction."""
        monitor = self._monitors.get(sst)
        if monitor is not None:
            return monitor
        if sst.filter is None:
            return None
        predicted = getattr(sst.filter, "expected_fpr", None)
        if predicted is None:
            return None  # fixed baseline: no prediction, nothing to compare
        monitor = DriftMonitor(
            float(predicted),
            window=self.window,
            abs_threshold=self.abs_threshold,
            rel_threshold=self.rel_threshold,
            min_empty=self.min_empty,
            on_drift=lambda report, flagged=sst: self._flagged.add(flagged),
        )
        self._monitors[sst] = monitor
        return monitor

    def _prune_dead_monitors(self) -> None:
        """Drop monitors (and flags) for SSTs compacted out of the tree."""
        live = set(self.tree.sstables())
        dead = [sst for sst in self._monitors if sst not in live]
        for sst in dead:
            del self._monitors[sst]
            self.stats["monitors_pruned"] += 1
        self._flagged &= live

    # ------------------------------------------------------------------ #
    # The loop                                                           #
    # ------------------------------------------------------------------ #

    def observe_epoch(
        self, queries, sst_stats: dict[SSTable, SstStats]
    ) -> dict:
        """Fold one probed epoch in; actuate on every SST that flags drift.

        ``queries`` is the batch that was probed and ``sst_stats`` the
        per-SST accounting :meth:`LSMTree.probe` collected for it.  Every
        monitored SST observes its own ``(false positives, empty trials)``
        pair; flagged SSTs are rebuilt in place from the rolling sample.
        Returns the epoch's verdict summary (JSON-ready).
        """
        self.record_queries(queries)
        self._prune_dead_monitors()
        reports: list[DriftReport] = []
        monitored = 0
        for sst, stats in sst_stats.items():
            monitor = self._monitor_for(sst)
            if monitor is None:
                continue
            monitored += 1
            reports.append(
                monitor.observe(stats.false_positive_reads, stats.empty_trials)
            )
        drifted = [report for report in reports if report.drifted]
        self.stats["epochs"] += 1
        self.stats["drift_flags"] += len(drifted)
        if self.metrics is not None and drifted:
            self.metrics.inc("lifecycle.drift_flags", len(drifted))
        rebuilt = self._actuate()
        return {
            "monitored_ssts": monitored,
            "drifted_ssts": len(drifted),
            "filters_rebuilt": rebuilt,
            "rolling_sample": len(self._rolling),
            "max_observed_fpr": max(
                (report.observed_fpr for report in reports), default=0.0
            ),
            "max_predicted_fpr": max(
                (report.predicted_fpr for report in reports), default=0.0
            ),
        }

    def _actuate(self) -> int:
        """Redesign every flagged SST's filter from the rolling sample."""
        if not self._flagged:
            return 0
        sample = self.rolling_sample()
        if sample is None:
            return 0  # nothing to redesign against yet; flags stay pending
        # Refresh the shared sample first: flush/compaction outputs built
        # after this drift event design against the current mix too.
        self.tree.set_design_queries(sample)
        rebuilt = 0
        for sst in sorted(self._flagged, key=lambda table: table.index):
            spec = sst.spec
            if spec is None:
                continue  # unbudgeted table (shouldn't happen on a filtered tree)
            filt = build_filter(spec, sst.keys, Workload(sst.keys, sample),
                                metrics=self.metrics)
            sst.attach_filter(filt, spec)
            rebuilt += 1
            self.stats["filters_rebuilt"] += 1
            if self.metrics is not None:
                self.metrics.inc("lifecycle.filters_rebuilt")
            # Re-arm against the new design's prediction (when it has one).
            monitor = self._monitors.get(sst)
            predicted = getattr(filt, "expected_fpr", None)
            if monitor is not None:
                if predicted is None:
                    del self._monitors[sst]
                else:
                    monitor.reset(float(predicted))
        self._flagged.clear()
        return rebuilt

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def num_monitors(self) -> int:
        return len(self._monitors)

    def to_dict(self) -> dict:
        """JSON-ready configuration + lifetime counters."""
        return {
            "window": self.window,
            "abs_threshold": self.abs_threshold,
            "rel_threshold": self.rel_threshold,
            "min_empty": self.min_empty,
            "rolling_capacity": self._rolling.maxlen,
            "rolling_sample": len(self._rolling),
            "num_monitors": self.num_monitors,
            "stats": dict(self.stats),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FilterLifecycle(monitors={self.num_monitors}, "
            f"flagged={len(self._flagged)}, rebuilt={self.stats['filters_rebuilt']})"
        )
