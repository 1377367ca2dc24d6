"""Probe tracing: per-query, per-level event capture for ``LSMTree.probe``.

A :class:`ProbeTrace` rides along one probe run: every fence-surviving
(query, SST) pair the tree routes becomes one :class:`ProbeEvent` carrying
the level, the SST, whether a filter was consulted, the filter's verdict
(which is exactly "a block read was charged") and the SST's ground truth.
Two kinds of state are kept deliberately separate:

* **totals** — aggregate counters over *every* recorded pair, updated with
  vectorised sums, never dropped.  These reconcile **exactly** against the
  :class:`~repro.lsm.cost.ProbeResult` of the same run
  (:meth:`ProbeTrace.reconcile`) — the invariant the CI metrics smoke gate
  and the acceptance test pin;
* **events** — the per-pair records, held in a ring buffer of
  ``capacity`` entries (oldest evicted first), so tracing a large batch is
  memory-safe: the tail is always inspectable, ``dropped`` says how much
  history scrolled away, and the totals stay exact regardless.

Tracing is opt-in (``tree.probe(batch, trace=ProbeTrace())``); the
untraced probe path pays one ``is None`` check per level.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

__all__ = ["ProbeEvent", "ProbeTrace"]

#: Default ring-buffer capacity (events, not queries).
DEFAULT_CAPACITY = 65_536

#: The accounting fields shared with :class:`~repro.lsm.cost.ProbeResult`,
#: in reconciliation order.
TRACE_FIELDS = (
    "candidates",
    "filter_probes",
    "blocks_read",
    "required_reads",
    "false_positive_reads",
    "missed_reads",
)


class ProbeEvent(NamedTuple):
    """One fence-surviving (query, SST) pair as the probe path saw it."""

    query: int  #: index into the probed batch
    level: int  #: LSM level of the SST
    sst: int  #: SST index within the level
    filtered: bool  #: was a filter consulted (False on the no-filter baseline)
    positive: bool  #: filter verdict — True means a block read was charged
    truth: bool  #: does the SST actually hold a matching key

    def to_dict(self) -> dict:
        return self._asdict()


class ProbeTrace:
    """Ring-buffered event recorder for one ``LSMTree.probe`` run."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("trace capacity must be at least 1")
        self.capacity = capacity
        self._events: deque[ProbeEvent] = deque(maxlen=capacity)
        self.num_events = 0
        self.totals: dict[str, int] = {name: 0 for name in TRACE_FIELDS}

    # ------------------------------------------------------------------ #
    # Recording (called by LSMTree.probe once per level)                 #
    # ------------------------------------------------------------------ #

    def record_level(self, level: int, queries, ssts, filtered, positives, truth) -> None:
        """Record one level's routed (query, SST) pairs, in probe order.

        The five arrays are aligned, one entry per fence-surviving pair,
        grouped by SST as the probe answered them; totals update with
        vectorised sums, then the pairs the ring can retain are appended.
        """
        count = int(len(queries))
        totals = self.totals
        totals["candidates"] += count
        totals["filter_probes"] += int(filtered.sum())
        totals["blocks_read"] += int(positives.sum())
        totals["required_reads"] += int(truth.sum())
        totals["false_positive_reads"] += int((positives & ~truth).sum())
        totals["missed_reads"] += int((truth & ~positives).sum())
        self.num_events += count
        # Older pairs would be evicted by the newest ``capacity`` anyway.
        tail = slice(max(0, count - self.capacity), count)
        pairs = zip(
            queries[tail].tolist(),
            ssts[tail].tolist(),
            filtered[tail].tolist(),
            positives[tail].tolist(),
            truth[tail].tolist(),
        )
        self._events.extend(
            ProbeEvent(query, level, sst, filt, positive, matched)
            for query, sst, filt, positive, matched in pairs
        )

    # ------------------------------------------------------------------ #
    # Inspection                                                         #
    # ------------------------------------------------------------------ #

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (totals still include them)."""
        return self.num_events - len(self._events)

    def events(self) -> list[ProbeEvent]:
        """The retained event tail, oldest first."""
        return list(self._events)

    def reconcile(self, result) -> list[str]:
        """Return mismatches between this trace and a ``ProbeResult``.

        Every shared accounting field must agree **exactly**: the trace
        totals are computed from the same per-SST arrays the probe summed
        into the result, so any difference means an instrumentation bug
        (or a trace reused across probe runs).  An empty list means the
        two accounts reconcile.
        """
        mismatches = []
        for name in TRACE_FIELDS:
            traced = self.totals[name]
            reported = int(getattr(result, name).sum())
            if traced != reported:
                mismatches.append(
                    f"{name}: trace says {traced}, ProbeResult says {reported}"
                )
        return mismatches

    def to_dict(self, max_events: int = 32) -> dict:
        """JSON-ready summary: totals, ring occupancy, newest event sample."""
        tail = list(self._events)[-max_events:] if max_events > 0 else []
        return {
            "capacity": self.capacity,
            "num_events": self.num_events,
            "retained_events": len(self._events),
            "dropped_events": self.dropped,
            "totals": dict(self.totals),
            "events": [event.to_dict() for event in tail],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbeTrace(events={self.num_events}, retained={len(self._events)}, "
            f"blocks_read={self.totals['blocks_read']})"
        )
