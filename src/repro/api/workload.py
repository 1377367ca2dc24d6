"""`Workload`: the key set + query sample bundle every builder consumes.

PR 2's generators emit an (:class:`~repro.workloads.batch.EncodedKeySet`,
:class:`~repro.workloads.batch.QueryBatch`) pair; this class formalises that
pair as one value — plus the optional :class:`~repro.keys.keyspace.KeySpace`
that produced the encoding and a ``metadata`` dict recording provenance
(generator config, dataset name) for the JSON reports.

Self-designing families (1PBF/2PBF/Proteus) consume ``workload.queries`` as
the sample Algorithm 1 optimises against; fixed baselines may consult it for
their paper-setup knob derivations (the fixed PBF's slot width) but never
require it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.keys.keyspace import KeySpace, StringKeySpace
from repro.workloads.batch import (
    EncodedKeySet,
    QueryBatch,
    coerce_keys,
    coerce_query_batch,
)
from repro.workloads.generators import generate_workload
from repro.workloads.keyset import KeySet

__all__ = ["Workload"]


class Workload:
    """An encoded key set, a query sample, and where they came from."""

    __slots__ = ("keys", "queries", "key_space", "metadata")

    def __init__(
        self,
        keys: KeySet | Iterable,
        queries: QueryBatch | Iterable[tuple],
        key_space: KeySpace | None = None,
        metadata: Mapping | None = None,
    ):
        if not isinstance(keys, KeySet):
            concrete = keys if isinstance(keys, np.ndarray) else list(keys)
            sample = concrete[0] if len(concrete) else None
            if isinstance(sample, (bytes, str, np.bytes_)):
                # Byte/str keys size their own space; no key_space needed.
                width = key_space.width if key_space is not None else None
                keys = coerce_keys(concrete, width)
            elif key_space is None:
                raise ValueError("raw keys need a key_space (or pass a KeySet)")
            else:
                keys = EncodedKeySet.from_raw(concrete, key_space)
        if key_space is None and keys.is_bytes:
            # Attach the matching string space: build_filter hands it to
            # every filter, whose scalar probes then take raw strings.
            key_space = StringKeySpace((keys.width + 7) // 8)
        if key_space is not None and key_space.width != keys.width:
            raise ValueError(
                f"key space width {key_space.width} does not match "
                f"key set width {keys.width}"
            )
        if isinstance(queries, QueryBatch):
            if queries.width != keys.width:
                raise ValueError(
                    f"query batch width {queries.width} does not match "
                    f"key set width {keys.width}"
                )
        elif keys.is_bytes:
            # Raw byte pairs become a ByteQueryBatch, padded-integer pairs
            # a QueryBatch of the padded integers (a byte filter converts
            # it to bytes) — coerce_query_batch dispatches.
            queries = coerce_query_batch(list(queries), keys.width)
        elif key_space is not None:
            queries = QueryBatch.from_raw(queries, key_space)
        else:
            queries = QueryBatch.from_pairs(queries, keys.width)
        self.keys = keys
        self.queries = queries
        self.key_space = key_space
        self.metadata = dict(metadata or {})

    @property
    def width(self) -> int:
        """Bit width of the shared key space."""
        return self.keys.width

    @property
    def num_keys(self) -> int:
        return len(self.keys)

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    @classmethod
    def generate(
        cls,
        num_keys: int,
        num_queries: int,
        width: int,
        seed: int = 0,
        key_dist: str = "uniform",
        query_family: str = "mixed",
    ) -> "Workload":
        """Seeded synthetic workload (see :mod:`repro.workloads.generators`),
        with the generator config recorded in ``metadata``."""
        key_set, batch = generate_workload(
            num_keys, num_queries, width, seed=seed,
            key_dist=key_dist, query_family=query_family,
        )
        return cls(
            key_set,
            batch,
            metadata={
                "source": "generate_workload",
                "num_keys": num_keys,
                "num_queries": num_queries,
                "width": width,
                "seed": seed,
                "key_dist": key_dist,
                "query_family": query_family,
            },
        )

    def describe(self) -> dict:
        """JSON-ready summary: sizes, width, and recorded provenance."""
        return {
            "num_keys": self.num_keys,
            "num_queries": self.num_queries,
            "width": self.width,
            "metadata": dict(self.metadata),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload(keys={self.num_keys}, queries={self.num_queries}, "
            f"width={self.width})"
        )
