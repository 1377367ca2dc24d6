"""Workloads: array-backed key sets, query batches, and seeded generators.

The batched execution layer runs on two shared types —
:class:`~repro.workloads.batch.EncodedKeySet` (sorted distinct keys as a
numpy array) and :class:`~repro.workloads.batch.QueryBatch` (parallel
``lo``/``hi`` arrays of inclusive range queries).  Integer keys of up to
64 bits are ``int64`` arrays (width 64 in offset-binary stored form); wider
integers, like string keys, are :class:`~repro.workloads.bytekeys.ByteKeySet`
byte keys.  :func:`~repro.workloads.batch.coerce_keys` picks the
representation from a key set's kind and width.

:mod:`repro.workloads.generators` provides the seeded synthetic workload
families (uniform/zipf/clustered keys, uniform/point/correlated/mixed
queries) that the test-suite and the benchmark harness share.
"""

from repro.workloads.batch import (
    EncodedKeySet,
    QueryBatch,
    coerce_keys,
    coerce_query_batch,
)
from repro.workloads.bytekeys import ByteKeySet, ByteQueryBatch
from repro.workloads.datasets import (
    DATASETS,
    dataset_queries,
    list_datasets,
    load_dataset,
)
from repro.workloads.generators import (
    KEY_DISTRIBUTIONS,
    QUERY_FAMILIES,
    clustered_keys,
    correlated_queries,
    generate_workload,
    mixed_queries,
    point_queries,
    random_keys,
    uniform_queries,
    write_stream,
    zipf_keys,
)

from repro.workloads.keyset import KeySet

__all__ = [
    "ByteKeySet",
    "ByteQueryBatch",
    "EncodedKeySet",
    "KeySet",
    "QueryBatch",
    "coerce_keys",
    "coerce_query_batch",
    "DATASETS",
    "dataset_queries",
    "list_datasets",
    "load_dataset",
    "KEY_DISTRIBUTIONS",
    "QUERY_FAMILIES",
    "random_keys",
    "zipf_keys",
    "clustered_keys",
    "uniform_queries",
    "point_queries",
    "correlated_queries",
    "mixed_queries",
    "generate_workload",
    "write_stream",
]
