"""The simulated I/O cost model for LSM probes.

The paper's end-to-end claim is about *I/O*: a range filter earns its memory
by turning disk reads into filter negatives.  This module prices a probe the
way the RocksDB experiment does:

* consulting an SST's fences is free (they live in the table index, always
  resident);
* consulting the SST's filter costs :attr:`CostModel.filter_probe_cost`
  (CPU, zero by default — the paper reports I/O counts);
* a filter positive (or any fence-surviving probe when the SST has no
  filter) charges exactly one data-block read at
  :attr:`CostModel.block_read_cost` — the seek into the table that either
  finds the key or discovers the false positive.

:class:`ProbeResult` carries the per-query accounting a probe produces; its
``false_positive_reads`` (block reads on SSTs that held no matching key) is
the paper's Fig. 9 metric, and ``missed_reads`` is the zero-false-negative
invariant — any nonzero entry means a filter rejected an SST that actually
contained a matching key.

Every routed (query, SST) pair is classified once, as a 3-bit code
(:func:`classify`): was a filter consulted, did it answer positive (a
block read was charged), does the SST truly hold a match.  All six
accounting fields are sums over code classes (:func:`tally`), so per-query,
per-level and per-SST totals are ``np.bincount`` histograms of the codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = [
    "CostModel",
    "LevelStats",
    "NUM_CODES",
    "ProbeResult",
    "SstStats",
    "classify",
    "tally",
]

#: Distinct pair classification codes: ``4 * filtered + 2 * positive + truth``.
NUM_CODES = 8


def classify(filtered: np.ndarray, positive: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Classification code of each routed pair (aligned boolean arrays in)."""
    return 4 * filtered + 2 * positive + truth


def tally(counts: np.ndarray) -> tuple:
    """The six accounting fields from per-code counts on the last axis.

    ``counts[..., code]`` (``NUM_CODES`` wide) in; ``(candidates,
    filter_probes, blocks_read, required_reads, false_positive_reads,
    missed_reads)`` out, each with the leading shape of ``counts``.
    """
    # Index the code's bits as [filtered, positive, truth].
    bits = counts.reshape(*counts.shape[:-1], 2, 2, 2)
    return (
        counts.sum(axis=-1),
        bits[..., 1, :, :].sum(axis=(-2, -1)),
        bits[..., :, 1, :].sum(axis=(-2, -1)),
        bits[..., :, :, 1].sum(axis=(-2, -1)),
        bits[..., :, 1, 0].sum(axis=-1),
        bits[..., :, 0, 1].sum(axis=-1),
    )


@dataclass(frozen=True)
class CostModel:
    """Charge rates for the simulated probe path."""

    #: Cost of fetching one data block after a positive probe.
    block_read_cost: float = 1.0
    #: Cost of one filter membership/intersection probe (CPU; free by default).
    filter_probe_cost: float = 0.0

    def __post_init__(self):
        if self.block_read_cost < 0 or self.filter_probe_cost < 0:
            raise ValueError("cost rates must be non-negative")

    def io_cost(self, blocks_read: int, filter_probes: int) -> float:
        """Total charged cost of a probe run."""
        return (
            blocks_read * self.block_read_cost + filter_probes * self.filter_probe_cost
        )

    def to_dict(self) -> dict:
        return {
            "block_read_cost": self.block_read_cost,
            "filter_probe_cost": self.filter_probe_cost,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostModel":
        """Inverse of :meth:`to_dict`; unknown keys are rejected, not dropped.

        Missing rates take the dataclass defaults, so a cost section logged
        by an older artifact (or a hand-written config) round-trips into the
        same model the run priced with.
        """
        unknown = sorted(set(data) - {"block_read_cost", "filter_probe_cost"})
        if unknown:
            raise ValueError(f"unknown CostModel field(s) {unknown}")
        return cls(
            block_read_cost=float(data.get("block_read_cost", 1.0)),
            filter_probe_cost=float(data.get("filter_probe_cost", 0.0)),
        )


@dataclass
class LevelStats:
    """Aggregate probe accounting for one LSM level."""

    level: int
    candidates: int = 0  # fence-surviving (query, SST) pairs
    filter_probes: int = 0  # filter consultations (0 when unfiltered)
    blocks_read: int = 0  # charged data-block reads
    required_reads: int = 0  # reads of SSTs that truly held a match
    false_positive_reads: int = 0  # reads of SSTs that held none
    missed_reads: int = 0  # truly-matching SSTs rejected by a filter (bug!)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "candidates": self.candidates,
            "filter_probes": self.filter_probes,
            "blocks_read": self.blocks_read,
            "required_reads": self.required_reads,
            "false_positive_reads": self.false_positive_reads,
            "missed_reads": self.missed_reads,
        }


@dataclass
class SstStats:
    """Aggregate probe accounting for one SST (the drift monitor's unit).

    ``empty_trials`` — fence-surviving probes of this SST for queries it
    held no matching entry for — is the per-SST denominator a
    :class:`~repro.obs.drift.DriftMonitor` grades ``false_positive_reads``
    against: the conditional FPR of *this* SST's filter on the live mix.
    """

    candidates: int = 0
    filter_probes: int = 0
    blocks_read: int = 0
    required_reads: int = 0
    false_positive_reads: int = 0
    missed_reads: int = 0

    @property
    def empty_trials(self) -> int:
        """Fence-surviving probes whose query had no matching entry here."""
        return self.candidates - self.required_reads

    def add(
        self,
        candidates: int,
        filter_probes: int,
        blocks_read: int,
        required_reads: int,
        false_positive_reads: int,
        missed_reads: int,
    ) -> None:
        """Accumulate one probe's counts for this SST (:func:`tally` order)."""
        self.candidates += candidates
        self.filter_probes += filter_probes
        self.blocks_read += blocks_read
        self.required_reads += required_reads
        self.false_positive_reads += false_positive_reads
        self.missed_reads += missed_reads

    def to_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "filter_probes": self.filter_probes,
            "blocks_read": self.blocks_read,
            "required_reads": self.required_reads,
            "false_positive_reads": self.false_positive_reads,
            "missed_reads": self.missed_reads,
        }


@dataclass
class ProbeResult:
    """Per-query probe accounting across the whole tree.

    Every array is aligned with the probed :class:`~repro.workloads.batch.
    QueryBatch`.  ``missed_reads`` counts truly-matching SSTs whose filter
    answered ``False`` — it must be identically zero for any correct filter
    (no false negatives).  ``LSMTree.probe`` records rather than raises (so
    a buggy third-party filter can be *diagnosed*, per query and per
    level); the benchmark driver fails the run on any nonzero entry.
    """

    candidates: np.ndarray
    filter_probes: np.ndarray
    blocks_read: np.ndarray
    required_reads: np.ndarray
    false_positive_reads: np.ndarray
    missed_reads: np.ndarray
    per_level: list[LevelStats] = field(default_factory=list)

    @classmethod
    def zeros(cls, num_queries: int, num_levels: int) -> "ProbeResult":
        return cls(
            candidates=np.zeros(num_queries, dtype=np.int64),
            filter_probes=np.zeros(num_queries, dtype=np.int64),
            blocks_read=np.zeros(num_queries, dtype=np.int64),
            required_reads=np.zeros(num_queries, dtype=np.int64),
            false_positive_reads=np.zeros(num_queries, dtype=np.int64),
            missed_reads=np.zeros(num_queries, dtype=np.int64),
            per_level=[LevelStats(level) for level in range(num_levels)],
        )

    @property
    def num_queries(self) -> int:
        return int(self.candidates.size)

    def total_blocks_read(self) -> int:
        return int(self.blocks_read.sum())

    def total_false_positive_reads(self) -> int:
        return int(self.false_positive_reads.sum())

    def total_required_reads(self) -> int:
        return int(self.required_reads.sum())

    def total_filter_probes(self) -> int:
        return int(self.filter_probes.sum())

    def io_cost(self, model: CostModel) -> float:
        return model.io_cost(self.total_blocks_read(), self.total_filter_probes())

    def empty_query_mask(self) -> np.ndarray:
        """Queries no SST in the tree holds a matching key for."""
        return self.required_reads == 0

    def to_dict(self, model: CostModel | None = None) -> dict:
        """JSON-ready totals (plus the charged cost when a model is given)."""
        summary = {
            "num_queries": self.num_queries,
            "candidates": int(self.candidates.sum()),
            "filter_probes": self.total_filter_probes(),
            "blocks_read": self.total_blocks_read(),
            "required_reads": self.total_required_reads(),
            "false_positive_reads": self.total_false_positive_reads(),
            "missed_reads": int(self.missed_reads.sum()),
            "num_empty_queries": int(self.empty_query_mask().sum()),
            "per_level": [stats.to_dict() for stats in self.per_level],
        }
        if model is not None:
            summary["io_cost"] = self.io_cost(model)
        return summary
