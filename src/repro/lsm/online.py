"""The online LSM write path: memtable → flush → leveled compaction.

:mod:`repro.lsm` builds a tree once and probes it; this module makes the
tree *churn*, the setting the paper's RocksDB experiment actually measures.
Writes buffer in a :class:`~repro.lsm.memtable.MemTable`; a full (or
forced) flush seals the buffer into a level-0 SST; level 0 accumulates
overlapping runs size-tiered until ``level0_runs`` of them exist, then a
compaction merges them — newest wins — with level 1 into a fresh level 1;
any deep level that outgrows its ``sst_keys * fanout**i`` entry capacity
merges wholesale into the level below (leaving itself empty — the
"compacted-away middle level" the fence router must tolerate).  Tombstones
ride along as real entries, shadowing older versions of their key, and are
dropped only when a merge writes the deepest populated level, where there
is nothing left below to shadow.

The **filter lifecycle** closes over this: after every topology change the
global ``bits_per_key`` budget is re-split across the surviving SSTs
(:func:`repro.api.budget.resplit_on_topology_change`) and every stale or
fresh table rebuilds its filter through the uniform
``build_filter(sst_spec, sst.keys, workload)`` registry protocol — the
same call the static tree uses, so the filter population tracks the tree
as it evolves.  :meth:`set_design_queries` swaps the shared design sample
(the drift actuator's lever: after a redesign the *next* flush and
compaction also build against the fresh sample, not the stale one).

Reads: every deep level keeps the :class:`~repro.lsm.merge.EntryRun` its
last merge produced (its SSTs are zero-copy slices of that run), so
:meth:`runs` lists the tree's sorted runs newest first — each level-0 SST
is its own run, then one run per populated deep level.  Those runs are
the single source for reads and merges alike: compactions and
``ShardedLookupService.from_online`` merge them, and :meth:`lookup_many`
resolves live-vs-deleted truth by recency with one dict pass over the
memtable plus one ``searchsorted`` per run over the probes still
unresolved.  It probes no filter: the runs are resident arrays, and one
filter call on one SST costs about ten times a search of a whole level.
:meth:`probe` runs the standard cost-model accounting over a
:meth:`snapshot` (a plain :class:`~repro.lsm.tree.LSMTree` sharing this
tree's SST objects — each level-0 run is its own single-SST level, deep
levels carry over, empty ones included).
"""

from __future__ import annotations

import numpy as np

from repro.api import FilterSpec, Workload, build_filter, resplit_on_topology_change
from repro.lsm.cost import ProbeResult, SstStats
from repro.lsm.memtable import MemTable
from repro.lsm.merge import EntryRun, merge_entry_runs
from repro.lsm.sstable import SSTable
from repro.lsm.tree import DEFAULT_FANOUT, DEFAULT_SST_KEYS, LSMTree
from repro.obs.metrics import timed
from repro.obs.trace import ProbeTrace
from repro.workloads.batch import QueryBatch, coerce_query_batch, probe_key_array

__all__ = ["OnlineLSMTree"]

#: Default level-0 run count that triggers the first compaction.
DEFAULT_LEVEL0_RUNS = 4


class OnlineLSMTree:
    """A churning leveled LSM tree with a self-tracking filter population."""

    def __init__(
        self,
        width: int,
        spec: FilterSpec | None = None,
        design_queries: QueryBatch | None = None,
        sst_keys: int = DEFAULT_SST_KEYS,
        fanout: int = DEFAULT_FANOUT,
        level0_runs: int = DEFAULT_LEVEL0_RUNS,
        memtable_capacity: int | None = None,
        policy: str = "proportional",
        metrics=None,
    ):
        if sst_keys < 1:
            raise ValueError("sst_keys must be at least 1")
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        if level0_runs < 1:
            raise ValueError("level0_runs must be at least 1")
        if design_queries is not None and design_queries.width != width:
            raise ValueError(
                f"design sample width {design_queries.width} does not match "
                f"tree width {width}"
            )
        self.width = width
        self.spec = spec
        self.design_queries = design_queries
        self.sst_keys = sst_keys
        self.fanout = fanout
        self.level0_runs = level0_runs
        self.policy = policy
        self.metrics = metrics
        self.memtable = MemTable(width, memtable_capacity or sst_keys)
        #: Level-0 runs, newest first; each spans the whole key space.
        self.level0: list[SSTable] = []
        #: Deep levels: ``deep_levels[i]`` is level ``i + 1`` — disjoint,
        #: sorted SSTs (possibly an empty, compacted-away level).
        self.deep_levels: list[list[SSTable]] = []
        #: ``deep_runs[i]`` is the merged run whose slices are level
        #: ``i + 1``'s SSTs, or ``None`` while that level is empty.
        self.deep_runs: list[EntryRun | None] = []
        self._sst_counter = 0
        self.stats = {
            "flushes": 0,
            "compactions": 0,
            "entries_merged": 0,
            "entries_written": 0,
            "tombstones_dropped": 0,
            "filters_built": 0,
        }

    # ------------------------------------------------------------------ #
    # Writes                                                             #
    # ------------------------------------------------------------------ #

    def put(self, key) -> None:
        """Insert (or resurrect) ``key``; flushes when the memtable fills."""
        self.memtable.put(key)
        if self.memtable.is_full:
            self.flush()

    def delete(self, key) -> None:
        """Tombstone ``key``; flushes when the memtable fills."""
        self.memtable.delete(key)
        if self.memtable.is_full:
            self.flush()

    def apply(self, ops) -> None:
        """Apply a batch of ``("put"|"del", key)`` ops (auto-flushing)."""
        for op, key in ops:
            if op == "put":
                self.put(key)
            elif op == "del":
                self.delete(key)
            else:
                raise ValueError(f"unknown write op {op!r}; expected 'put' or 'del'")

    def flush(self) -> SSTable | None:
        """Seal the memtable into a level-0 SST (no-op when empty).

        The new run lands at the front of level 0 (newest first); its
        filter is built by the post-change budget re-split, and a level-0
        population beyond ``level0_runs`` triggers compaction into level 1.
        """
        if self.memtable.is_empty:
            return None
        run = self.memtable.seal()
        sst = SSTable(0, self._next_index(), run.keys, run.tombstones)
        self.level0.insert(0, sst)
        self.stats["flushes"] += 1
        if self.metrics is not None:
            self.metrics.inc("online.flushes")
        if len(self.level0) > self.level0_runs:
            self._compact_level0()
        self._rebudget()
        return sst

    # ------------------------------------------------------------------ #
    # Compaction                                                         #
    # ------------------------------------------------------------------ #

    def _next_index(self) -> int:
        self._sst_counter += 1
        return self._sst_counter

    def _level_capacity(self, depth: int) -> int:
        """Entry capacity of deep level ``depth`` (1-based)."""
        return self.sst_keys * self.fanout**depth

    def runs(self) -> list[EntryRun]:
        """Every sorted run, newest first: level-0 SSTs, then deep levels.

        Each level-0 SST is its own run; each populated deep level is the
        one merge output its SSTs slice (empty levels contribute none).
        Reads and merges both consume these, so a deep level is searched
        and merged as one array rather than SST by SST.
        """
        runs = [EntryRun._trusted(sst.keys, sst.tombstones) for sst in self.level0]
        runs.extend(run for run in self.deep_runs if run is not None)
        return runs

    def _entries_below(self, depth: int) -> int:
        """Total entries strictly deeper than deep level ``depth``."""
        return sum(len(run) for run in self.deep_runs[depth:] if run is not None)

    def _merge_into(self, runs: list[EntryRun], depth: int) -> None:
        """Merge ``runs`` (newest first) and deep level ``depth`` into that level.

        The level's own run is the oldest input.  Tombstones are dropped
        exactly when nothing lives below the target level.  The merged run
        becomes the level's run, chopped into ``sst_keys``-entry SSTs that
        are zero-copy slices of it.
        """
        if depth > len(self.deep_runs):
            self.deep_levels.append([])
            self.deep_runs.append(None)
        elif self.deep_runs[depth - 1] is not None:
            runs = [*runs, self.deep_runs[depth - 1]]
        drop = self._entries_below(depth) == 0
        merged = merge_entry_runs(runs, drop_tombstones=drop)
        in_entries = sum(len(run) for run in runs)
        self.stats["compactions"] += 1
        self.stats["entries_merged"] += in_entries
        self.stats["entries_written"] += len(merged)
        if drop:
            survivors = merged.num_tombstones
            dropped_all = sum(run.num_tombstones for run in runs)
            self.stats["tombstones_dropped"] += dropped_all - survivors
        if self.metrics is not None:
            self.metrics.inc("online.compactions")
            self.metrics.inc("online.entries_merged", in_entries)
        tombstones = merged.tombstones
        ssts = []
        for start in range(0, len(merged), self.sst_keys):
            stop = min(start + self.sst_keys, len(merged))
            ssts.append(
                SSTable(
                    depth,
                    self._next_index(),
                    merged.keys.slice(start, stop),
                    tombstones[start:stop] if tombstones is not None else None,
                )
            )
        self.deep_levels[depth - 1] = ssts
        self.deep_runs[depth - 1] = merged if ssts else None

    def _compact_level0(self) -> None:
        """Merge every level-0 run with level 1's run into a fresh level 1."""
        runs = self.runs()[: len(self.level0)]
        self.level0 = []
        self._merge_into(runs, 1)
        self._cascade(1)

    def _cascade(self, depth: int) -> None:
        """Spill any over-capacity deep level wholesale into the next one."""
        while depth <= len(self.deep_runs):
            run = self.deep_runs[depth - 1]
            if run is None or len(run) <= self._level_capacity(depth):
                break
            self.deep_levels[depth - 1] = []
            self.deep_runs[depth - 1] = None
            self._merge_into([run], depth + 1)
            depth += 1

    # ------------------------------------------------------------------ #
    # The filter lifecycle                                               #
    # ------------------------------------------------------------------ #

    def sstables(self) -> list[SSTable]:
        """Every SST, newest level-0 run first, then deep levels downward."""
        return self.level0 + [
            sst for level in self.deep_levels for sst in level
        ]

    def set_design_queries(self, queries: QueryBatch) -> None:
        """Swap the shared design sample future filter builds optimise against.

        This is the actuator's lever: a drift-triggered redesign refreshes
        the sample here so flush and compaction outputs also self-design
        against the *current* mix rather than the one the tree started
        with.  Already-attached filters are not touched — the lifecycle
        rebuilds exactly the flagged ones.
        """
        if queries.width != self.width:
            raise ValueError(
                f"design sample width {queries.width} does not match "
                f"tree width {self.width}"
            )
        self.design_queries = queries

    def design_workload_for(self, sst: SSTable) -> Workload | None:
        """The ``build_filter`` workload for one SST: its keys + the sample."""
        if self.design_queries is None:
            return None
        return Workload(sst.keys, self.design_queries)

    def build_sst_filter(self, sst: SSTable, spec: FilterSpec) -> None:
        """(Re)build one SST's filter through the registry and attach it."""
        filt = build_filter(
            spec, sst.keys, self.design_workload_for(sst), metrics=self.metrics
        )
        sst.attach_filter(filt, spec)
        self.stats["filters_built"] += 1
        if self.metrics is not None:
            self.metrics.inc("online.filters_built")

    def _rebudget(self) -> int:
        """Re-split the global budget and rebuild every stale filter.

        Called after each topology change.  Returns how many filters were
        (re)built; zero when the tree runs unfiltered (``spec is None``).
        Under the proportional policy only fresh SSTs are stale; under
        ``equal`` every grant shifts with the SST count, so the whole
        population rebuilds — the documented cost of that strawman.
        """
        if self.spec is None:
            return 0
        ssts = self.sstables()
        if not ssts:
            return 0
        specs, stale = resplit_on_topology_change(
            self.spec,
            [len(sst) for sst in ssts],
            [sst.spec if sst.filter is not None else None for sst in ssts],
            self.policy,
        )
        rebuilt = 0
        with timed(self.metrics, "online.rebudget.seconds"):
            for sst, sst_spec, is_stale in zip(ssts, specs, stale):
                if is_stale:
                    self.build_sst_filter(sst, sst_spec)
                    rebuilt += 1
        return rebuilt

    # ------------------------------------------------------------------ #
    # Reads                                                              #
    # ------------------------------------------------------------------ #

    @property
    def num_entries(self) -> int:
        """On-disk entries (live + tombstones), excluding the memtable."""
        return sum(len(sst) for sst in self.sstables())

    @property
    def num_ssts(self) -> int:
        return len(self.level0) + sum(len(level) for level in self.deep_levels)

    def filter_size_bits(self) -> int:
        return sum(sst.filter_size_bits() for sst in self.sstables())

    def snapshot(self) -> LSMTree:
        """The current topology as a probe-ready :class:`LSMTree` view.

        Shares this tree's SST objects (filter swaps show through without
        a rebuild): each level-0 run becomes its own single-SST level —
        runs overlap, but a one-table level is trivially disjoint — and
        the deep levels carry over verbatim, empty gaps included.
        """
        levels: list[list[SSTable]] = [[sst] for sst in self.level0]
        levels.extend(list(level) for level in self.deep_levels)
        if not any(levels):
            raise ValueError(
                "cannot snapshot a tree with no SSTs (flush the memtable first)"
            )
        geometry = {
            "sst_keys": self.sst_keys,
            "fanout": self.fanout,
            "level0_runs": self.level0_runs,
            "online": True,
        }
        return LSMTree(levels, self.width, geometry)

    def probe(
        self,
        queries,
        trace: ProbeTrace | None = None,
        sst_stats: dict[SSTable, SstStats] | None = None,
    ) -> ProbeResult:
        """Cost-model accounting of a query batch over the current topology.

        Delegates to :meth:`LSMTree.probe` on a :meth:`snapshot`; the
        memtable is not consulted — it is resident memory, and the cost
        model only prices SST block reads.  A tree with no SSTs (before its
        first flush, or after a compaction dropped every entry) reads no
        block: the batch is validated and answered with zeros and no
        levels.
        """
        if not self.sstables():
            return ProbeResult.zeros(len(coerce_query_batch(queries, self.width)), 0)
        return self.snapshot().probe(queries, trace=trace, sst_stats=sst_stats)

    def lookup_many(self, keys) -> np.ndarray:
        """Live membership per key: the newest entry wins, tombstones hide.

        Resolution order is recency: one dict pass over the memtable, then
        one ``searchsorted`` per run of :meth:`runs` — level-0 SSTs newest
        first, then one run per deep level downward — over the probes no
        newer run has answered, stopping once none are left.  A hit on a
        tombstone answers ``False``.  Returns one bool per key — ``True``
        iff the key's newest entry is a live put.

        No filter is probed: the runs are resident arrays, and one filter
        call on one SST costs about ten times a search of a whole level.

        Probes go through :func:`~repro.workloads.batch.probe_key_array`,
        which validates them once and keeps their order and duplicates:
        byte probes become an ``S``-dtype array (the runs' ``memcmp``
        order), integer probes the int64 stored form (their big-endian
        bytes past 64 bits), and probes of the other representation than
        the tree holds (first run, else the buffered memtable kind) are
        rejected.
        """
        runs = self.runs()
        if runs:
            expect_bytes = runs[0].keys.is_bytes
        else:
            sample = self.memtable.sample_key()
            expect_bytes = None if sample is None else isinstance(sample, bytes)
        probes = probe_key_array(keys, self.width, expect_bytes=expect_bytes)
        state = self.memtable.get_many(probes.tolist())
        found = state == 1
        pending = np.flatnonzero(state < 0)
        wanted = probes[pending]
        for run in runs:
            if pending.size == 0:
                break
            table = run.keys.keys
            pos = np.searchsorted(table, wanted)
            # A probe above every key gets pos == len(table); clipping it to
            # the last key cannot fake a hit, as that key is smaller.
            hit = table.take(pos, mode="clip") == wanted
            if not hit.any():
                continue
            if run.tombstones is None:
                found[pending[hit]] = True
            else:
                found[pending[hit]] = ~run.tombstones[pos[hit]]
            pending = pending[~hit]
            wanted = wanted[~hit]
        return found

    def describe(self) -> dict:
        """JSON-ready topology, memory, and lifetime-counter summary."""
        return {
            "width": self.width,
            "num_entries": self.num_entries,
            "num_ssts": self.num_ssts,
            "memtable_entries": len(self.memtable),
            "level0_runs": len(self.level0),
            "deep_levels": [
                {
                    "level": depth + 1,
                    "num_ssts": len(level),
                    "num_entries": sum(len(sst) for sst in level),
                    "num_tombstones": sum(sst.num_tombstones for sst in level),
                }
                for depth, level in enumerate(self.deep_levels)
            ],
            "filter_bits": self.filter_size_bits(),
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "policy": self.policy,
            "stats": dict(self.stats),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineLSMTree(l0={len(self.level0)}, "
            f"deep={[len(level) for level in self.deep_levels]}, "
            f"entries={self.num_entries}, memtable={len(self.memtable)})"
        )
