"""Shard worker: probe a shared-memory tree snapshot in a child process.

The worker protocol is deliberately tiny — one duplex pipe per worker:

* parent → worker: ``(request_id, los, his)`` with numpy bound arrays
  already validated by the parent's router (the worker wraps them with
  the batch's ``_trusted`` constructor, so no re-validation cost), or
  ``None`` as the shutdown sentinel;
* worker → parent: uniform ``(kind, request_id, shard_id, payload)``
  tuples — ``("ready", -1, shard_id, None)`` once the snapshot is
  attached, then ``("ok", request_id, shard_id, (answers, stats))`` per
  request or ``("error", request_id, shard_id, message)`` if a probe
  raised (``request_id`` is ``-1`` for a startup failure).

Start-up arguments stay small: the snapshot spec names the segments, one
of them holding the shard's pickled filter list
(:func:`~repro.serve.shm.load_pickle`), so no start step writes a large
payload down a pipe.  A worker's death closes its pipe end, which the
parent reads as end-of-file, at start-up as while serving.

Answers are ground truth (``required_reads > 0``) — the filter decides
what gets *charged*, never what is *answered* — and ``stats`` carries the
cost-model aggregates (blocks read, false positives, filter probes) plus
``probe_s``, the seconds the worker spent in ``tree.probe``, so the
service can expose fleet-wide accounting through :mod:`repro.obs` and
split its reply wait into worker compute versus dispatch and IPC.

Lifecycle: the worker only ever *attaches* segments (through
:func:`~repro.serve.shm.attach_segment`, which opts out of resource
tracking) and closes its mappings on the way out; creating and unlinking
stay with the parent, so a worker crash cannot leak or destroy a
segment.  See :mod:`repro.serve.shm` for the full ownership rules.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.serve.shm import attach_tree, load_pickle
from repro.workloads.batch import QueryBatch
from repro.workloads.bytekeys import ByteQueryBatch

__all__ = ["probe_shard", "rebuild_batch", "worker_main"]


def rebuild_batch(
    los: np.ndarray, his: np.ndarray, width: int, max_length: int | None
) -> QueryBatch:
    """Reassemble a pre-validated sub-batch from its bound arrays.

    The parent carved these out of one validated batch with
    :meth:`~repro.workloads.batch.QueryBatch.select`-style indexing, so
    the invariants hold by construction and the arrays are wrapped with
    the ``_trusted`` constructors — the worker never re-validates per
    request, and integer bounds, already in their stored form, are not
    encoded again.
    """
    if max_length is None:
        return QueryBatch._trusted(los, his, width)
    return ByteQueryBatch._trusted(los, his, width)


def probe_shard(tree, batch: QueryBatch) -> tuple[np.ndarray, dict]:
    """Probe one shard's sub-batch: ground-truth answers and cost stats.

    ``stats`` holds the cost-model aggregates of the
    :class:`~repro.lsm.cost.ProbeResult` and ``probe_s``, the wall time of
    the ``tree.probe`` call itself.
    """
    start = perf_counter()
    result = tree.probe(batch)
    probe_s = perf_counter() - start
    answers = np.asarray(result.required_reads > 0, dtype=bool)
    return answers, {
        "blocks_read": int(result.blocks_read.sum()),
        "required_reads": int(result.required_reads.sum()),
        "false_positive_reads": int(result.false_positive_reads.sum()),
        "filter_probes": int(result.filter_probes.sum()),
        "probe_s": probe_s,
    }


def worker_main(shard_id: int, snapshot_spec: dict, max_length: int | None, conn) -> None:
    """Worker entry point: attach the snapshot, answer until the sentinel.

    Runs in a child forked by the forkserver.  Any exception while
    answering one request is reported as an ``("error", ...)`` reply and
    the loop continues — a malformed batch must not take the shard down;
    only the ``None`` sentinel (or the pipe breaking at parent death) ends
    the worker.
    """
    tree = None
    segments = []
    try:
        try:
            filters = load_pickle(snapshot_spec["filters"])
            tree, segments = attach_tree(snapshot_spec, filters)
        except BaseException as exc:  # report, then die: parent sees non-ready
            conn.send(("error", -1, shard_id, repr(exc)))
            raise
        width = tree.width
        conn.send(("ready", -1, shard_id, None))
        for request_id, los, his in iter(conn.recv, None):
            try:
                batch = rebuild_batch(los, his, width, max_length)
                conn.send(("ok", request_id, shard_id, probe_shard(tree, batch)))
            except Exception as exc:
                conn.send(("error", request_id, shard_id, repr(exc)))
    finally:
        # Drop every view into the segments before closing the mappings —
        # closing with live buffer exports raises BufferError.
        del tree
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exit cleans up anyway
                pass
