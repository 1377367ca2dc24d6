"""The sharded lookup service: route, dispatch, gather, account.

:class:`ShardedLookupService` is the serving-layer root object.  Built
from a key population (or an :class:`~repro.lsm.online.OnlineLSMTree`
snapshot), it partitions the keys into contiguous shards
(:mod:`repro.serve.shard`), builds one filtered
:class:`~repro.lsm.tree.LSMTree` per shard under the two-level budget
split, freezes each tree's buffers into shared memory
(:mod:`repro.serve.shm`), and starts one worker process per shard
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

Workers are forked from one ``forkserver`` (:data:`WORKER_CONTEXT`) that
preloads :mod:`repro.serve.worker`, so starting one costs a fork, not a
fresh interpreter importing numpy and ``repro``.  The forkserver is an
exec'd interpreter, started once per parent process at its first
process-mode service; it exits when that parent does.  Unlike ``fork``,
its children inherit none of the parent's threads, locks or segment
mappings, so they still attach segments by name.  They take their
environment (``REPRO_KERNEL_BACKEND`` included) and preloaded modules
from the forkserver as they were when it started, not from the parent at
each start; the parent's current ``sys.path`` reaches only imports the
preload did not make.  The preload list is global to
:mod:`multiprocessing`: if something else started the forkserver first,
workers import on demand — correct, only slower.  Each worker talks to
the parent over one duplex ``Pipe``; the parent keeps only its own end,
so a worker's death reads as end-of-file on that pipe.

Failure model: a worker death or reply timeout raises
:class:`ServeError` with the shard named; :meth:`close` is idempotent,
runs from a ``weakref.finalize`` as a last resort, and always terminates
workers before unlinking segments — the parent owns every segment, so no
crash ordering can leak one (the lifecycle the tests pin).
"""

from __future__ import annotations

import multiprocessing
import threading
import weakref
from multiprocessing.connection import wait
from time import monotonic, perf_counter

import numpy as np

from repro.api import FilterSpec, Workload
from repro.lsm.merge import merge_entry_runs
from repro.lsm.online import OnlineLSMTree
from repro.lsm.tree import DEFAULT_FANOUT, DEFAULT_SST_KEYS, LSMTree
from repro.obs.metrics import MetricsRegistry
from repro.serve.shard import build_shard_trees, route_queries, shard_fences, split_key_set
from repro.serve.shm import share_pickle, snapshot_tree
from repro.serve.worker import probe_shard, worker_main
from repro.workloads.batch import QueryBatch, coerce_keys, stored_query_batch
from repro.workloads.bytekeys import ByteQueryBatch
from repro.workloads.keyset import KeySet

__all__ = ["ServeError", "ShardedLookupService", "WORKER_CONTEXT"]

#: Accounting keys aggregated across shards per served batch.
_STAT_KEYS = ("blocks_read", "required_reads", "false_positive_reads", "filter_probes")

#: The one context every process-mode service starts its workers from.
WORKER_CONTEXT = multiprocessing.get_context("forkserver")

#: How often a reply wait wakes to check its deadline, in seconds.
_TICK_S = 0.2


class ServeError(RuntimeError):
    """A serving-layer failure: worker startup, death, timeout, or probe error."""


def _add_shard_stats(stats: dict, shard_id: int, shard_stats: dict, handed_at: float) -> None:
    """Fold in one shard's :func:`~repro.serve.worker.probe_shard` stats.

    ``handed_at`` is when its sub-batch was handed over (the pipe send or
    the inline call), so ``shard_wait_s`` is the parent's wait for its
    answers.
    """
    stats["shard_wait_s"][shard_id] = perf_counter() - handed_at
    for key in _STAT_KEYS:
        stats[key] += shard_stats[key]
    stats["shard_probe_s"][shard_id] = shard_stats["probe_s"]


class _ShardWorker:
    """Parent-side handle for one shard: process, pipe end, owned segments."""

    __slots__ = ("process", "conn", "segments")

    def __init__(self, process, conn, segments):
        self.process = process
        self.conn = conn
        self.segments = segments


def _reap(workers: list[_ShardWorker]) -> None:
    """Tear the fleet down: sentinel, join, terminate, close pipes, close + unlink.

    Module-level (and referencing no service instance) so a
    ``weakref.finalize`` can run it after the service is collected.
    Unlinking is unconditional and parent-side — a worker that already
    crashed, or never attached, changes nothing about segment cleanup.
    """
    for worker in workers:
        if worker.process.is_alive():
            try:
                worker.conn.send(None)
            except OSError:  # its pipe broke: the worker is dying already
                pass
    for worker in workers:
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
    for worker in workers:
        worker.conn.close()
        for segment in worker.segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - parent holds no views
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


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
        """Snapshot every shard, fork its worker, and wait for readiness."""
        WORKER_CONTEXT.set_forkserver_preload(["repro.serve.worker"])
        filter_segments = []  # needed only until every worker is ready
        try:
            for shard_id, tree in enumerate(trees):
                spec, segments, filters = snapshot_tree(tree)
                try:
                    # Pickled before its worker exists: a filter that cannot
                    # pickle fails here.
                    spec["filters"], filter_segment = share_pickle(filters)
                    filter_segments.append(filter_segment)
                    conn, child_conn = WORKER_CONTEXT.Pipe()
                    process = WORKER_CONTEXT.Process(
                        target=worker_main,
                        args=(shard_id, spec, self.max_length, child_conn),
                        daemon=True,
                    )
                    try:
                        process.start()
                    finally:
                        child_conn.close()
                except BaseException:
                    # This shard's segments are not yet registered with a
                    # _ShardWorker, so close() below cannot reach them —
                    # unlink here or they outlive the process.
                    for segment in segments:
                        segment.close()
                        segment.unlink()
                    raise
                self._workers.append(_ShardWorker(process, conn, segments))
            self._finalizer = weakref.finalize(self, _reap, self._workers)
            starting = set(range(len(self._workers)))
            while starting:
                kind, _, shard_id, payload = self._next_reply(starting)
                if kind == "error":
                    raise ServeError(f"shard {shard_id} failed to start: {payload}")
                starting.discard(shard_id)
        except BaseException:
            self.close()
            raise
        finally:
            for segment in filter_segments:
                segment.close()
                segment.unlink()

    # ------------------------------------------------------------------ #
    # Serving                                                            #
    # ------------------------------------------------------------------ #

    def _make_batch(self, los, his) -> QueryBatch:
        """Validate raw bounds once, in the representation the shards store.

        Byte-string bounds against integer keys are read as the padded
        big-endian integers of their bytes, through
        :func:`~repro.workloads.batch.stored_query_batch`, as every tree
        and filter reads them; integer bounds against byte keys are that
        batch's own conversion.
        """
        if self.max_length is not None:
            return ByteQueryBatch(los, his, self.max_length)
        if len(los) and isinstance(los[0], (bytes, str, np.bytes_)):
            return stored_query_batch(zip(los, his), self.width, False)
        return QueryBatch(los, his, self.width)

    def _died(self, shard_id: int) -> ServeError:
        """The error for a worker whose pipe broke: join it briefly, name it."""
        process = self._workers[shard_id].process
        process.join(timeout=1.0)
        return ServeError(f"shard worker {shard_id} died (exitcode {process.exitcode})")

    def _next_reply(self, shard_ids) -> tuple:
        """The next reply from the workers of ``shard_ids``, within the timeout.

        A pipe at end-of-file names its worker as dead: the parent holds no
        copy of the child's end, so only the worker's exit closes it.
        """
        conns = {self._workers[shard_id].conn: shard_id for shard_id in shard_ids}
        deadline = monotonic() + self.reply_timeout
        while True:
            for conn in wait(list(conns), timeout=_TICK_S):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    raise self._died(conns[conn]) from None
            if monotonic() > deadline:
                raise ServeError(f"no worker reply within {self.reply_timeout}s")

    def serve_batch(self, los, his=None) -> tuple[np.ndarray, dict]:
        """Answer inclusive ``[lo, hi]`` lookups; returns ``(answers, stats)``.

        ``his=None`` makes every request a point lookup.  ``answers`` is
        ground truth — one bool per request, in order — and ``stats``
        aggregates the cost-model accounting (blocks read, false
        positives, filter probes) plus routing detail across the fleet,
        one entry per shard (0 for shards the batch did not touch):
        ``shard_queries``; ``shard_probe_s``, the seconds each shard spent
        in ``tree.probe``; and ``shard_wait_s``, the parent's seconds from
        handing the shard its sub-batch (the pipe send, or the inline
        call) to holding its answers, so ``shard_wait_s - shard_probe_s``
        is that shard's transport and queueing.  A range spanning several
        shards fans out and ORs; a range in a fence gap is answered
        negative without touching any worker.
        """
        if his is None:
            his = los
        batch = self._make_batch(los, his)
        answers = np.zeros(len(batch), dtype=bool)
        stats = {key: 0 for key in _STAT_KEYS}
        stats["shard_queries"] = [0] * self.num_shards
        stats["shard_probe_s"] = [0.0] * self.num_shards
        stats["shard_wait_s"] = [0.0] * self.num_shards
        stats["routed_none"] = 0
        if len(batch) == 0:
            return answers, stats
        first, last = route_queries(self._mins, self._maxs, batch.los, batch.his)
        stats["routed_none"] = int((first == last).sum())
        with self._lock:
            if self._closed:
                raise ServeError("service is closed")
            # Per shard in flight: its request id, query indices, hand-over time.
            pending: dict[int, tuple[int, np.ndarray, float]] = {}
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
                handed_at = perf_counter()
                if self._trees is not None:
                    shard_answers, shard_stats = probe_shard(self._trees[shard_id], sub)
                    answers[indices] |= shard_answers
                    _add_shard_stats(stats, shard_id, shard_stats, handed_at)
                    continue
                request_id = self._request_counter
                self._request_counter += 1
                try:
                    self._workers[shard_id].conn.send((request_id, sub.los, sub.his))
                except OSError:
                    raise self._died(shard_id) from None
                pending[shard_id] = (request_id, indices, handed_at)
            while pending:
                kind, request_id, shard_id, payload = self._next_reply(pending)
                if pending[shard_id][0] != request_id:
                    continue  # stale reply from an aborted earlier batch
                if kind == "error":
                    raise ServeError(f"shard {shard_id} probe failed: {payload}")
                _, indices, handed_at = pending.pop(shard_id)
                shard_answers, shard_stats = payload
                answers[indices] |= shard_answers
                _add_shard_stats(stats, shard_id, shard_stats, handed_at)
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
            _reap(self._workers)
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

