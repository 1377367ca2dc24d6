"""The serving layer: micro-batching, key-space sharding, worker probes.

This package turns the batch-probe substrate into a lookup *service* —
the ROADMAP's production-shaped tier:

* :class:`~repro.serve.batcher.MicroBatcher` — coalesce awaited single
  lookups into one backend call whenever none is in flight (at most
  ``max_batch`` each) and fan the answers back, caller by caller;
* :mod:`repro.serve.shard` — partition the sorted key space into
  contiguous shards and route query batches to them with the same
  two-``searchsorted`` fence trick the LSM levels use;
* :mod:`repro.serve.shm` — freeze each shard's tree buffers into
  ``multiprocessing.shared_memory`` segments that workers probe as
  zero-copy numpy views (parent owns, workers attach);
* :class:`~repro.serve.service.ShardedLookupService` — the root object:
  build, snapshot, start workers, route, dispatch, gather, account,
  tear down.

>>> from repro.serve import ShardedLookupService
>>> service = ShardedLookupService.build(range(10_000), width=32, num_shards=2,
...                                      mode="inline")
>>> answers, stats = service.serve_batch([5, 70_000], [17, 70_009])
>>> answers.tolist()
[True, False]
>>> service.close()

The benchmark driver lives in :mod:`repro.evaluation.serve_bench`.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.service import ServeError, ShardedLookupService
from repro.serve.shard import (
    build_shard_trees,
    plan_shard_bounds,
    route_queries,
    shard_fences,
    split_key_set,
)
from repro.serve.shm import (
    attach_key_set,
    attach_segment,
    attach_tree,
    share_key_set,
    snapshot_tree,
)

__all__ = [
    "MicroBatcher",
    "ServeError",
    "ShardedLookupService",
    "attach_key_set",
    "attach_segment",
    "attach_tree",
    "build_shard_trees",
    "plan_shard_bounds",
    "route_queries",
    "shard_fences",
    "share_key_set",
    "snapshot_tree",
    "split_key_set",
]
