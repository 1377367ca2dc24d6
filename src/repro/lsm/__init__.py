"""LSM tree substrate with per-SST range filters and a simulated I/O model.

The paper's end-to-end setting: a leveled LSM tree where every SST owns a
range filter self-designed (or budget-derived) from one shared workload
sample, and where the value of a filter is measured in *avoided block
reads*.

* :class:`~repro.lsm.sstable.SSTable` — one sorted key run (a zero-copy
  slice of its level's array) with min/max fences and an optional filter;
* :class:`~repro.lsm.tree.LSMTree` — leveled geometry, per-SST filter
  construction through :mod:`repro.api`, and batched probe routing;
* :class:`~repro.lsm.layout.LevelLayout` — one level's keys and prefix
  filters (Proteus, prefix and whole-key Bloom, 1PBF) as flat arrays, so
  one pass answers every pair routed there;
* :class:`~repro.lsm.cost.CostModel` / :class:`~repro.lsm.cost.ProbeResult`
  — the I/O pricing (block read charged only on a filter positive) and the
  per-query accounting, including the paper's false-positive-block-read
  metric.

The **online write path** churns the same substrate:

* :class:`~repro.lsm.memtable.MemTable` — the bounded write buffer
  (last-write-wins puts and tombstoned deletes);
* :class:`~repro.lsm.merge.EntryRun` /
  :func:`~repro.lsm.merge.merge_entry_runs` — newest-wins compaction
  merges on the :func:`repro.kernels.merge_runs` kernel;
* :class:`~repro.lsm.online.OnlineLSMTree` — memtable → flush → leveled
  compaction, re-splitting the global filter budget and rebuilding stale
  filters after every topology change;
* :class:`~repro.lsm.lifecycle.FilterLifecycle` — the closed loop: per-SST
  drift monitors actuating in-place filter redesign from a rolling query
  sample.

The benchmark driver lives in :mod:`repro.evaluation.lsm_bench`
(``python -m repro.evaluation.lsm_bench``; ``--timeline`` exercises the
online path).
"""

from repro.lsm.cost import CostModel, LevelStats, ProbeResult, SstStats
from repro.lsm.layout import LevelLayout
from repro.lsm.lifecycle import FilterLifecycle
from repro.lsm.memtable import MemTable
from repro.lsm.merge import EntryRun, merge_entry_runs, merge_key_sets
from repro.lsm.online import OnlineLSMTree
from repro.lsm.sstable import SSTable
from repro.lsm.tree import LSMTree

__all__ = [
    "CostModel",
    "LevelStats",
    "ProbeResult",
    "SstStats",
    "SSTable",
    "LSMTree",
    "LevelLayout",
    "MemTable",
    "EntryRun",
    "merge_entry_runs",
    "merge_key_sets",
    "OnlineLSMTree",
    "FilterLifecycle",
]
