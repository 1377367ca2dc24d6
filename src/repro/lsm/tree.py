"""The LSM tree substrate: leveled geometry, per-SST filters, batched probes.

This is the paper's end-to-end RocksDB experiment as a simulation:

* **Geometry** — leveled compaction shape.  Level ``i`` holds up to
  ``fanout**i`` SSTs of ``sst_keys`` keys each; levels fill top-down, the
  deepest level absorbing the remainder, so the bulk of the data sits at the
  bottom — the steady state leveled compaction converges to.  Keys are
  assigned to levels by a seeded permutation, so every level is a sorted run
  spanning the whole key space: levels overlap each other (queries must
  consult all of them) while the SSTs *within* a level are disjoint and
  fence-pruned by binary search, exactly as in RocksDB.
* **Filters** — :meth:`LSMTree.attach_filters` builds one filter per SST
  through the uniform registry protocol: a global
  :class:`~repro.api.spec.FilterSpec` is split into per-SST specs
  (:func:`~repro.api.budget.derive_sst_specs`) and every SST builds via
  ``build_filter(sst_spec, sst.keys, workload)`` from **one shared query
  sample** — the paper's deployment, where each table self-designs against
  the system-wide sample.
* **Probes** — :meth:`LSMTree.probe` replays a
  :class:`~repro.workloads.batch.QueryBatch` through the tree with batched
  routing: per level, two ``searchsorted`` calls locate each query's
  fence-surviving SST interval, and the level's
  :class:`~repro.lsm.layout.LevelLayout` answers every routed (query, SST)
  pair in one vectorised pass — prefix filters (Proteus, prefix and
  whole-key Bloom, 1PBF) through their own
  :class:`~repro.filters.prefix_pass.PrefixPass` laid out with the SSTs'
  fences, other families through one filter call per routed SST group.  A level's SSTs must be sorted and disjoint;
  the constructor rejects any other level.  Accounting follows
  :mod:`repro.lsm.cost`: a block read is charged only on a filter positive.
"""

from __future__ import annotations

import numpy as np

from repro.api import FilterSpec, Workload, build_filter, derive_sst_specs
from repro.filters.base import ragged_ranges
from repro.lsm.cost import (
    NUM_CODES,
    CostModel,
    LevelStats,
    ProbeResult,
    SstStats,
    classify,
    tally,
)
from repro.lsm.layout import LevelLayout
from repro.lsm.sstable import SSTable
from repro.obs.metrics import timed
from repro.obs.trace import ProbeTrace
from repro.workloads.batch import stored_query_batch
from repro.workloads.keyset import KeySet

__all__ = ["LSMTree"]

#: Default SST capacity in keys.
DEFAULT_SST_KEYS = 512

#: Default level-size growth factor (RocksDB's default is 10; 4 keeps the
#: smoke-scale trees multi-level).
DEFAULT_FANOUT = 4


class LSMTree:
    """A leveled LSM tree of :class:`~repro.lsm.sstable.SSTable` runs."""

    def __init__(
        self,
        levels: list[list[SSTable]],
        width: int,
        geometry: dict | None = None,
    ):
        if not levels or not any(levels):
            raise ValueError("an LSM tree needs at least one non-empty level")
        self.width = width
        self.levels = levels
        self.geometry = dict(geometry or {})
        for level in levels:
            for sst in level:
                if sst.width != width:
                    raise ValueError(
                        f"SST width {sst.width} does not match tree width {width}"
                    )
        # Per-level fence arrays: SSTs in a level are disjoint and sorted,
        # so min/max fences are both increasing and a query's candidate SSTs
        # form the contiguous interval two searchsorted calls locate.  A
        # level compacted away entirely (legal mid-lifecycle: level i merged
        # into i+1 leaves an empty level between populated neighbours) gets
        # empty fence arrays — searchsorted then routes zero queries to it,
        # so probe never special-cases the gap.  Fences are the first and
        # last elements of each SST's stored key array — S-strings for byte
        # trees (so a ByteQueryBatch's S-dtype bounds searchsort directly,
        # in memcmp order), the int64 stored form for integer trees.  An
        # empty level cannot reveal the dtype, so it comes from the first
        # populated SST (one always exists; the constructor rejects an
        # all-empty tree).
        dtype = next(sst for level in levels for sst in level).keys.keys.dtype
        #: Whether the tree stores byte keys; probe bounds are put in its
        #: representation before any fence is searched.
        self.is_bytes = dtype.kind == "S"
        self._fences = []
        for level_index, level in enumerate(levels):
            mins = np.array([sst.keys.keys[0] for sst in level], dtype=dtype)
            maxs = np.array([sst.keys.keys[-1] for sst in level], dtype=dtype)
            overlapping = np.flatnonzero(~np.asarray(maxs[:-1] < mins[1:], dtype=bool))
            if overlapping.size:
                at = int(overlapping[0])
                raise ValueError(
                    f"level {level_index} is not sorted and disjoint: SST {at} ends at "
                    f"{level[at].max_key!r}, not below SST {at + 1}'s first key "
                    f"{level[at + 1].min_key!r}"
                )
            self._fences.append((mins, maxs))
        self.refresh_layouts()

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        keys: KeySet,
        sst_keys: int = DEFAULT_SST_KEYS,
        fanout: int = DEFAULT_FANOUT,
        seed: int = 0,
    ) -> "LSMTree":
        """Build the leveled tree over ``keys`` (filters attached separately).

        Level ``i`` has capacity ``sst_keys * fanout**i`` keys; levels fill
        shallow-to-deep, the deepest taking the remainder.  A seeded
        permutation decides which key lands in which level, then each
        level's keys are re-sorted (:meth:`~repro.workloads.keyset.KeySet.
        sorted_take`) and chopped into contiguous SSTs — zero-copy
        :meth:`~repro.workloads.keyset.KeySet.slice` views of the level's
        key set, whatever its representation.
        """
        if not isinstance(keys, KeySet):
            raise TypeError("LSMTree.build takes a KeySet")
        if len(keys) == 0:
            raise ValueError("cannot build an LSM tree over zero keys")
        if sst_keys < 1:
            raise ValueError("sst_keys must be at least 1")
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        sizes: list[int] = []
        remaining = len(keys)
        while remaining > 0:
            capacity = sst_keys * fanout ** len(sizes)
            take = min(capacity, remaining)
            sizes.append(take)
            remaining -= take
        perm = np.random.default_rng(seed).permutation(len(keys))
        levels: list[list[SSTable]] = []
        offset = 0
        for level_index, size in enumerate(sizes):
            chosen = perm[offset : offset + size]
            offset += size
            level_set = keys.sorted_take(chosen)
            ssts = []
            for sst_index, start in enumerate(range(0, size, sst_keys)):
                ssts.append(
                    SSTable(
                        level_index,
                        sst_index,
                        level_set.slice(start, min(start + sst_keys, size)),
                    )
                )
            levels.append(ssts)
        geometry = {"sst_keys": sst_keys, "fanout": fanout, "seed": seed}
        return cls(levels, keys.width, geometry)

    def attach_filters(
        self,
        spec: FilterSpec,
        workload: Workload,
        policy: str = "proportional",
        metrics=None,
    ) -> None:
        """Build one filter per SST from ``spec`` and the shared sample.

        ``spec`` carries the *global* bits-per-key budget; ``policy`` says
        how it splits across SSTs (:mod:`repro.api.budget`).  Every SST
        builds through ``build_filter(sst_spec, sst.keys, workload)`` — the
        self-designing families run Algorithm 1 per SST against the one
        shared query sample, fixed baselines derive their knobs per SST.
        ``metrics`` optionally instruments every per-SST build (and the
        whole attach pass) through the :mod:`repro.obs` registry.
        """
        ssts = self.sstables()
        specs = derive_sst_specs(spec, [len(sst) for sst in ssts], policy)
        with timed(metrics, "attach.seconds"):
            for sst, sst_spec in zip(ssts, specs):
                sst.attach_filter(
                    build_filter(sst_spec, sst.keys, workload, metrics=metrics),
                    sst_spec,
                )
        self.refresh_layouts()
        if metrics is not None:
            metrics.inc("attach.passes")
            metrics.inc("attach.ssts", len(ssts))
            metrics.set_gauge("attach.last_filter_bits", self.filter_size_bits())

    def clear_filters(self) -> None:
        """Detach every SST's filter (the no-filter baseline)."""
        for sst in self.sstables():
            sst.clear_filter()
        self.refresh_layouts()

    def refresh_layouts(self) -> None:
        """Lay out every populated level's keys and attached filters anew.

        The constructor, :meth:`attach_filters` and :meth:`clear_filters`
        call this, and so does :func:`repro.serve.shm.attach_tree` once it
        has attached a snapshot's filters, so the probing thread starts
        from fresh layouts.  A filter swapped in through
        ``SSTable.attach_filter`` is still seen: :meth:`probe` rebuilds a
        level whose layout no longer matches its SSTs' filters.
        """
        self._layouts: list[LevelLayout | None] = [
            LevelLayout(level, self.width, *fences) if level else None
            for level, fences in zip(self.levels, self._fences)
        ]

    # ------------------------------------------------------------------ #
    # Probing                                                            #
    # ------------------------------------------------------------------ #

    def probe(
        self,
        queries,
        trace: ProbeTrace | None = None,
        sst_stats: dict[SSTable, SstStats] | None = None,
    ) -> ProbeResult:
        """Replay a query batch through the tree and return the accounting.

        Bounds may be integers or byte strings whatever the tree stores:
        :func:`~repro.workloads.batch.stored_query_batch` puts them in its
        representation (an integer against byte keys is a padded
        big-endian integer), so the fence searches compare like with like.
        Per level, each query's fence-surviving SSTs form a contiguous
        interval (``first[q] <= j < last[q]``).  The routed (query, SST)
        pairs are flattened and sorted by SST, and the level's
        :class:`~repro.lsm.layout.LevelLayout` answers all of them in one
        pass (:meth:`~repro.lsm.layout.LevelLayout.probe_pairs`): ground
        truth from one search over the level's keys, prefix-filter answers
        from one search over the level's trie intervals and one Bloom
        kernel call.  SSTs with other filters keep one ``probe_many`` call
        per routed group.  Every pair is classified once
        (:func:`~repro.lsm.cost.classify`); the per-query arrays, the
        per-level totals and the optional per-SST totals are all
        ``np.bincount`` histograms of those codes.

        ``trace`` optionally records every routed (query, SST) pair as a
        :class:`~repro.obs.trace.ProbeEvent` — fence survival, filter
        verdict, charged block read, ground truth — whose totals reconcile
        exactly against the returned :class:`ProbeResult`
        (``trace.reconcile(result)``).  ``sst_stats`` optionally
        accumulates a :class:`~repro.lsm.cost.SstStats` per probed SST
        (keyed by the SST object itself), the granularity the per-SST
        drift monitors consume — pass the same dict across probes to
        accumulate over a stream.  Both hooks cost one ``is None`` check
        per level when unused.
        """
        batch = stored_query_batch(queries, self.width, self.is_bytes)
        num_queries = len(batch)
        if num_queries == 0:
            return ProbeResult.zeros(0, len(self.levels))
        level_counts = np.zeros((len(self.levels), NUM_CODES), dtype=np.int64)
        # Per level, ``query * NUM_CODES + code`` of every routed pair; the
        # empty seed keeps the final concatenate valid when nothing routes.
        pair_keys = [np.empty(0, dtype=np.int64)]
        for level_index, level in enumerate(self.levels):
            mins, maxs = self._fences[level_index]
            # First SST whose max fence reaches lo; first whose min exceeds hi.
            first = np.searchsorted(maxs, batch.los, side="left")
            lengths = np.searchsorted(mins, batch.his, side="right") - first
            active = lengths > 0
            if not active.any():
                continue
            # Flatten the (query, SST) routing pairs and group them by SST,
            # so the work below is proportional to the routed pairs — not to
            # num_ssts * num_queries, which a point-heavy batch over a wide
            # bottom level would make mostly wasted all-False masks.
            lengths = lengths[active]
            flat_sst, _ = ragged_ranges(first[active], lengths)
            flat_query = np.repeat(np.flatnonzero(active), lengths)
            order = np.argsort(flat_sst, kind="stable")
            flat_sst = flat_sst[order]
            flat_query = flat_query[order]
            layout = self._layouts[level_index]
            if not layout.is_current():
                layout = self._layouts[level_index] = LevelLayout(level, self.width, mins, maxs)
            filtered, positive, truth = layout.probe_pairs(batch, flat_query, flat_sst)
            codes = classify(filtered, positive, truth)
            level_counts[level_index] = np.bincount(codes, minlength=NUM_CODES)
            pair_keys.append(flat_query * NUM_CODES + codes)
            if sst_stats is not None:
                sst_codes = flat_sst * NUM_CODES + codes
                per_sst = np.bincount(sst_codes, minlength=len(level) * NUM_CODES)
                per_sst = per_sst.reshape(len(level), NUM_CODES)
                sst_ids = np.unique(flat_sst).tolist()
                fields = [column.tolist() for column in tally(per_sst[sst_ids])]
                for sst_id, counts in zip(sst_ids, zip(*fields)):
                    sst_stats.setdefault(level[sst_id], SstStats()).add(*counts)
            if trace is not None:
                trace.record_level(level_index, flat_query, flat_sst, filtered, positive, truth)
        per_query = np.bincount(np.concatenate(pair_keys), minlength=num_queries * NUM_CODES)
        per_query = per_query.reshape(num_queries, NUM_CODES)
        level_fields = zip(*(column.tolist() for column in tally(level_counts)))
        per_level = [LevelStats(index, *counts) for index, counts in enumerate(level_fields)]
        return ProbeResult(*tally(per_query), per_level=per_level)

    # ------------------------------------------------------------------ #
    # Accounting and introspection                                       #
    # ------------------------------------------------------------------ #

    def sstables(self) -> list[SSTable]:
        """Every SST, shallow level first, left to right within a level."""
        return [sst for level in self.levels for sst in level]

    @property
    def num_keys(self) -> int:
        return sum(len(sst) for sst in self.sstables())

    @property
    def num_ssts(self) -> int:
        return sum(len(level) for level in self.levels)

    def filter_bits_per_level(self) -> list[int]:
        """Per-level filter memory: the sum of each SST filter's charged bits."""
        return [sum(sst.filter_size_bits() for sst in level) for level in self.levels]

    def filter_size_bits(self) -> int:
        """Tree-wide filter memory in bits."""
        return sum(self.filter_bits_per_level())

    def describe(self, cost_model: CostModel | None = None) -> dict:
        """JSON-ready geometry and memory summary."""
        summary = {
            "width": self.width,
            "num_keys": self.num_keys,
            "num_levels": len(self.levels),
            "num_ssts": self.num_ssts,
            "geometry": dict(self.geometry),
            "levels": [
                {
                    "level": index,
                    "num_ssts": len(level),
                    "num_keys": sum(len(sst) for sst in level),
                    "filter_bits": bits,
                }
                for index, (level, bits) in enumerate(
                    zip(self.levels, self.filter_bits_per_level())
                )
            ],
        }
        if cost_model is not None:
            summary["cost_model"] = cost_model.to_dict()
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LSMTree(levels={len(self.levels)}, ssts={self.num_ssts}, "
            f"keys={self.num_keys}, width={self.width})"
        )
