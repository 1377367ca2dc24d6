"""The sharded lookup service: route, dispatch, gather, account.

:class:`ShardedLookupService` is the serving-layer root object.  Built
from a key population (or an :class:`~repro.lsm.online.OnlineLSMTree`
snapshot), it partitions the keys into contiguous shards
(:mod:`repro.serve.shard`), builds one filtered
:class:`~repro.lsm.tree.LSMTree` per shard under the two-level budget
split, freezes each tree's buffers into shared memory
(:mod:`repro.serve.shm`), and spawns one worker process per shard
(:mod:`repro.serve.worker`).  :meth:`serve_batch` then answers a batch of
point/range lookups end to end:

1. **validate** the bounds once, as a :class:`~repro.workloads.batch.
   QueryBatch`/:class:`~repro.workloads.bytekeys.ByteQueryBatch`;
2. **route** every query to its contiguous candidate-shard interval with
   two ``searchsorted`` calls on the shard fences (queries in a fence gap
   are answered negative for free);
3. **dispatch** one sub-batch per touched shard to its worker (or probe
   inline in ``mode="inline"``, the same data path minus the processes);
4. **gather** the per-shard ground-truth answers, OR-combining queries
   that straddled a boundary, and aggregate the cost-model accounting.

``spawn`` is used for workers on every platform: it is the start method
that actually exercises the attach-by-name shared-memory path (fork would
silently inherit the mappings) and the only portable one.

Failure model: a worker death or reply timeout raises
:class:`ServeError` with the shard named; :meth:`close` is idempotent,
runs from a ``weakref.finalize`` as a last resort, and always terminates
workers before unlinking segments — the parent owns every segment, so no
crash ordering can leak one (the lifecycle the tests pin).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import weakref
from time import monotonic

import numpy as np

from repro.api import FilterSpec, Workload
from repro.lsm.merge import merge_entry_runs
from repro.lsm.online import OnlineLSMTree
from repro.lsm.tree import DEFAULT_FANOUT, DEFAULT_SST_KEYS, LSMTree
from repro.obs.metrics import MetricsRegistry
from repro.serve.shard import build_shard_trees, route_queries, shard_fences, split_key_set
from repro.serve.shm import snapshot_tree
from repro.serve.worker import probe_shard, worker_main
from repro.workloads.batch import QueryBatch, coerce_keys
from repro.workloads.bytekeys import ByteQueryBatch
from repro.workloads.keyset import KeySet

__all__ = ["ServeError", "ShardedLookupService"]

#: Accounting keys aggregated across shards per served batch.
_STAT_KEYS = ("blocks_read", "required_reads", "false_positive_reads", "filter_probes")


class ServeError(RuntimeError):
    """A serving-layer failure: worker startup, death, timeout, or probe error."""


def _add_shard_stats(stats: dict, shard_id: int, shard_stats: dict) -> None:
    """Fold one shard's :func:`~repro.serve.worker.probe_shard` stats in."""
    for key in _STAT_KEYS:
        stats[key] += shard_stats[key]
    stats["shard_probe_s"][shard_id] = shard_stats["probe_s"]


class _ShardWorker:
    """Parent-side handle for one shard: process, queue, owned segments."""

    __slots__ = ("process", "request_queue", "segments")

    def __init__(self, process, request_queue, segments):
        self.process = process
        self.request_queue = request_queue
        self.segments = segments


def _reap(workers: list[_ShardWorker], reply_queue) -> None:
    """Tear the fleet down: sentinel, join, terminate, close + unlink.

    Module-level (and referencing no service instance) so a
    ``weakref.finalize`` can run it after the service is collected.
    Unlinking is unconditional and parent-side — a worker that already
    crashed, or never attached, changes nothing about segment cleanup.
    """
    for worker in workers:
        if worker.process.is_alive():
            try:
                worker.request_queue.put_nowait(None)
            except Exception:
                pass
    for worker in workers:
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
    for worker in workers:
        worker.request_queue.cancel_join_thread()
        worker.request_queue.close()
        for segment in worker.segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - parent holds no views
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
    if reply_queue is not None:
        reply_queue.cancel_join_thread()
        reply_queue.close()


class ShardedLookupService:
    """Key-range-sharded lookup serving over worker processes.

    Construct with :meth:`build` (from a key population) or
    :meth:`from_online` (from an online tree's live snapshot); use as a
    context manager or call :meth:`close`.  ``mode="inline"`` runs the
    identical route/dispatch/gather path against in-process trees — the
    deterministic backend the unit tests and single-core baselines use.
    """

    def __init__(
        self,
        trees: list[LSMTree],
        shards: list[KeySet],
        mode: str = "process",
        metrics: MetricsRegistry | None = None,
        reply_timeout: float = 30.0,
    ):
        if mode not in ("process", "inline"):
            raise ValueError(f"unknown serving mode {mode!r}")
        if len(trees) != len(shards) or not trees:
            raise ValueError("need one tree per shard, at least one shard")
        self.width = shards[0].width
        self.max_length = shards[0].max_length if shards[0].is_bytes else None
        self.num_shards = len(shards)
        self.shard_sizes = [len(shard) for shard in shards]
        self.filter_bits = sum(tree.filter_size_bits() for tree in trees)
        self.mode = mode
        self.metrics = metrics
        self.reply_timeout = reply_timeout
        self._mins, self._maxs = shard_fences(shards)
        self._lock = threading.Lock()
        self._closed = False
        self._request_counter = 0
        self._trees: list[LSMTree] | None = None
        self._workers: list[_ShardWorker] = []
        self._reply_queue = None
        self._finalizer = None
        if mode == "inline":
            self._trees = trees
        else:
            self._start_workers(trees)

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        keys,
        num_shards: int = 1,
        spec: FilterSpec | None = None,
        workload: Workload | None = None,
        policy: str = "proportional",
        sst_keys: int = DEFAULT_SST_KEYS,
        fanout: int = DEFAULT_FANOUT,
        seed: int = 0,
        width: int | None = None,
        mode: str = "process",
        metrics: MetricsRegistry | None = None,
        reply_timeout: float = 30.0,
    ) -> "ShardedLookupService":
        """Shard ``keys``, build one filtered tree per shard, start serving.

        ``keys`` is anything :func:`~repro.workloads.batch.coerce_keys`
        accepts — a :class:`~repro.workloads.keyset.KeySet`, raw
        byte/str keys, or integers (with ``width``).  ``spec`` is the
        *global* filter budget, split across shards and then SSTs by
        ``policy``; ``None`` serves filterless.
        """
        key_set = coerce_keys(keys, width)
        shards = split_key_set(key_set, num_shards)
        trees = build_shard_trees(
            shards,
            spec=spec,
            workload=workload,
            policy=policy,
            sst_keys=sst_keys,
            fanout=fanout,
            seed=seed,
            metrics=metrics,
        )
        return cls(
            trees,
            shards,
            mode=mode,
            metrics=metrics,
            reply_timeout=reply_timeout,
        )

    @classmethod
    def from_online(
        cls,
        tree: OnlineLSMTree,
        num_shards: int = 1,
        policy: str | None = None,
        seed: int = 0,
        mode: str = "process",
        metrics: MetricsRegistry | None = None,
        reply_timeout: float = 30.0,
    ) -> "ShardedLookupService":
        """Serve a point-in-time live snapshot of an online tree.

        The live key set is recovered by merging the tree's runs
        (:meth:`OnlineLSMTree.runs`, newest first) with tombstones
        dropped — exactly the deepest-level compaction semantics — then
        sharded and rebuilt under the tree's own spec, design sample,
        geometry and policy.  The snapshot *copies* into shared memory,
        so the parent tree is free to keep ingesting and compacting;
        serving answers stay frozen at snapshot time.  Unflushed memtable
        writes are not part of the snapshot — call ``tree.flush()`` first
        to include them.
        """
        runs = tree.runs()
        if not runs:
            raise ValueError("cannot snapshot an online tree with no SSTs")
        live = merge_entry_runs(runs, drop_tombstones=True)
        workload = None
        if tree.design_queries is not None:
            workload = Workload(live.keys, tree.design_queries)
        return cls.build(
            live.keys,
            num_shards=num_shards,
            spec=tree.spec,
            workload=workload,
            policy=policy if policy is not None else tree.policy,
            sst_keys=tree.sst_keys,
            fanout=tree.fanout,
            seed=seed,
            mode=mode,
            metrics=metrics,
            reply_timeout=reply_timeout,
        )

    def _start_workers(self, trees: list[LSMTree]) -> None:
        """Snapshot every shard, spawn its worker, and wait for readiness."""
        context = multiprocessing.get_context("spawn")
        self._reply_queue = context.Queue()
        try:
            for shard_id, tree in enumerate(trees):
                spec, segments, filters = snapshot_tree(tree)
                try:
                    # Pickled up front: a filter that cannot pickle fails
                    # here, before any child exists.
                    pickled_filters = pickle.dumps(filters)
                    request_queue = context.Queue()
                    process = context.Process(
                        target=worker_main,
                        args=(
                            shard_id,
                            spec,
                            self.max_length,
                            request_queue,
                            self._reply_queue,
                        ),
                        daemon=True,
                    )
                    process.start()
                except BaseException:
                    # This shard's segments are not yet registered with a
                    # _ShardWorker, so close() below cannot reach them —
                    # unlink here or they outlive the process.
                    for segment in segments:
                        segment.close()
                        segment.unlink()
                    raise
                self._workers.append(_ShardWorker(process, request_queue, segments))
                # Filters go down the queue once the child runs, never as a
                # spawn argument (see repro.serve.worker: a child dying
                # mid-read would hang start()).
                request_queue.put(pickled_filters)
            self._finalizer = weakref.finalize(
                self, _reap, self._workers, self._reply_queue
            )
            ready: set[int] = set()
            while len(ready) < len(self._workers):
                kind, _, shard_id, payload = self._next_reply()
                if kind == "error":
                    raise ServeError(f"shard {shard_id} failed to start: {payload}")
                if kind == "ready":
                    ready.add(shard_id)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Serving                                                            #
    # ------------------------------------------------------------------ #

    def _make_batch(self, los, his) -> QueryBatch:
        """Validate raw bounds once, in the service's native representation."""
        if self.max_length is not None:
            return ByteQueryBatch(los, his, self.max_length)
        return QueryBatch(los, his, self.width)

    def _next_reply(self) -> tuple:
        """One reply off the shared queue, with liveness-aware timeout."""
        deadline = monotonic() + self.reply_timeout
        while True:
            try:
                return self._reply_queue.get(timeout=0.2)
            except queue_module.Empty:
                dead = [
                    shard_id
                    for shard_id, worker in enumerate(self._workers)
                    if not worker.process.is_alive()
                ]
                if dead:
                    raise ServeError(
                        f"shard worker(s) {dead} died "
                        f"(exitcodes {[self._workers[d].process.exitcode for d in dead]})"
                    ) from None
                if monotonic() > deadline:
                    raise ServeError(
                        f"no worker reply within {self.reply_timeout}s"
                    ) from None

    def serve_batch(self, los, his=None) -> tuple[np.ndarray, dict]:
        """Answer inclusive ``[lo, hi]`` lookups; returns ``(answers, stats)``.

        ``his=None`` makes every request a point lookup.  ``answers`` is
        ground truth — one bool per request, in order — and ``stats``
        aggregates the cost-model accounting (blocks read, false
        positives, filter probes) plus routing detail across the fleet:
        ``shard_queries`` and ``shard_probe_s`` (seconds each shard spent
        in ``tree.probe``; 0 for shards the batch did not touch), one
        entry per shard.  A range spanning several shards fans out and
        ORs; a range in a fence gap is answered negative without touching
        any worker.
        """
        if his is None:
            his = los
        batch = self._make_batch(los, his)
        answers = np.zeros(len(batch), dtype=bool)
        stats = {key: 0 for key in _STAT_KEYS}
        stats["shard_queries"] = [0] * self.num_shards
        stats["shard_probe_s"] = [0.0] * self.num_shards
        stats["routed_none"] = 0
        if len(batch) == 0:
            return answers, stats
        first, last = route_queries(self._mins, self._maxs, batch.los, batch.his)
        stats["routed_none"] = int((first == last).sum())
        with self._lock:
            if self._closed:
                raise ServeError("service is closed")
            pending: dict[int, np.ndarray] = {}
            for shard_id in range(self.num_shards):
                indices = np.nonzero((first <= shard_id) & (shard_id < last))[0]
                if indices.size == 0:
                    continue
                sub = batch.select(indices)
                stats["shard_queries"][shard_id] = int(indices.size)
                if self.metrics is not None:
                    self.metrics.inc(f"serve.shard.{shard_id}.batches")
                    self.metrics.inc(
                        f"serve.shard.{shard_id}.queries", int(indices.size)
                    )
                if self._trees is not None:
                    shard_answers, shard_stats = probe_shard(self._trees[shard_id], sub)
                    answers[indices] |= shard_answers
                    _add_shard_stats(stats, shard_id, shard_stats)
                else:
                    request_id = self._request_counter
                    self._request_counter += 1
                    self._workers[shard_id].request_queue.put(
                        (request_id, sub.los, sub.his)
                    )
                    pending[request_id] = indices
            while pending:
                kind, request_id, shard_id, payload = self._next_reply()
                if kind == "error":
                    raise ServeError(f"shard {shard_id} probe failed: {payload}")
                if kind != "ok" or request_id not in pending:
                    continue  # stale reply from an aborted earlier batch
                shard_answers, shard_stats = payload
                answers[pending.pop(request_id)] |= shard_answers
                _add_shard_stats(stats, shard_id, shard_stats)
        if self.metrics is not None:
            self.metrics.inc("serve.batches")
            self.metrics.inc("serve.requests", len(batch))
            self.metrics.inc("serve.router.misses", stats["routed_none"])
            for key in _STAT_KEYS:
                self.metrics.inc(f"serve.{key}", stats[key])
        return answers, stats

    def answer_batch(self, los, his) -> np.ndarray:
        """Answers only — the :class:`~repro.serve.batcher.MicroBatcher` backend."""
        return self.serve_batch(los, his)[0]

    def describe(self) -> dict:
        """JSON-ready shape summary (shards, sizes, mode, representation)."""
        return {
            "mode": self.mode,
            "width": self.width,
            "byte_keys": self.max_length is not None,
            "num_shards": self.num_shards,
            "shard_sizes": list(self.shard_sizes),
            "num_keys": int(sum(self.shard_sizes)),
            "filter_bits": int(self.filter_bits),
        }

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop workers and release every shared segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._finalizer is not None:
            self._finalizer()  # runs _reap exactly once
        elif self._workers:  # startup failed before the finalizer existed
            _reap(self._workers, self._reply_queue)
        self._trees = None

    def __enter__(self) -> "ShardedLookupService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedLookupService(shards={self.num_shards}, "
            f"keys={sum(self.shard_sizes)}, mode={self.mode!r}, "
            f"closed={self._closed})"
        )

