"""`Workload`: the key set + query sample bundle every builder consumes.

PR 2's generators emit an (:class:`~repro.workloads.batch.EncodedKeySet`,
:class:`~repro.workloads.batch.QueryBatch`) pair; this class formalises that
pair as one value, plus a ``metadata`` dict recording provenance (generator
config, dataset name) for the JSON reports.  Raw keys and bounds go through
the same two doors as everywhere else: :func:`~repro.workloads.batch.
coerce_keys` and :func:`~repro.workloads.batch.stored_query_batch`, so the
query sample is always in the key set's representation.

Self-designing families (1PBF/2PBF/Proteus) consume ``workload.queries`` as
the sample Algorithm 1 optimises against; fixed baselines may consult it for
their paper-setup knob derivations (the fixed PBF's slot width) but never
require it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.workloads.batch import QueryBatch, coerce_keys, stored_query_batch
from repro.workloads.generators import generate_workload
from repro.workloads.keyset import KeySet

__all__ = ["Workload"]


class Workload:
    """A key set, a query sample in its representation, and where they came from.

    ``keys`` is a :class:`~repro.workloads.keyset.KeySet` or raw keys;
    ``width`` is what raw integer keys need, as in
    :func:`~repro.workloads.batch.coerce_keys` (byte/str keys size their
    own space).  ``queries`` is a batch or ``(lo, hi)`` pairs, integer or
    byte/str: against byte keys, integer bounds are padded big-endian
    integers, and against integer keys, byte bounds are read the same way.
    """

    __slots__ = ("keys", "queries", "metadata")

    def __init__(
        self,
        keys: KeySet | Iterable,
        queries: QueryBatch | Iterable[tuple],
        width: int | None = None,
        metadata: Mapping | None = None,
    ):
        self.keys = coerce_keys(keys, width)
        self.queries = stored_query_batch(queries, self.keys.width, self.keys.is_bytes)
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
