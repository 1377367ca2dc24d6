"""Reproduction of "Proteus: A Self-Designing Range Filter" (SIGMOD 2022).

The package is organised as a set of small, focused subpackages:

``repro.keys``
    Key machinery: longest-common-prefix computations over integer keys
    and the byte-matrix primitives of byte keys.
``repro.amq``
    Approximate membership query structures (Bloom filters and friends) and
    the hashing substrate they rely on.
``repro.trie``
    Trie substrate: rank/select bit vectors, the physical
    LOUDS-Dense/Sparse + Fast Succinct Trie encoders (SuRF's one trie),
    the succinct prefix index the size audit holds to its sorted-array
    reference, and the succinct size models used by SuRF and Algorithm 1.
``repro.filters``
    Range filters: the common interface, the exact trie oracle, the prefix
    pass (the one range probe of Proteus' design space), prefix Bloom
    filters, SuRF and Rosetta.
``repro.core``
    The paper's contribution: the CPFPR model, Algorithm 1, and the protean
    range filters (1PBF, 2PBF and Proteus).
``repro.workloads``
    Array-backed workloads: ``EncodedKeySet``/``QueryBatch`` (the shared
    batch representation every vectorised path consumes) and the seeded
    synthetic generators (uniform/zipf/clustered keys, mixed query families).
``repro.api``
    The unified construction API: ``FilterSpec`` (declarative, JSON
    round-trippable build requests), the ``register_family`` registry, the
    ``build_filter(spec, keys, workload)`` protocol and the ``Workload``
    bundle.
``repro.lsm``
    The RocksDB-style LSM tree substrate: leveled geometry, per-SST range
    filters constructed via ``FilterSpec`` from one shared workload sample,
    the simulated I/O cost model (block reads charged only on filter
    positives), and the online write path (``MemTable`` → flush → leveled
    compaction in ``OnlineLSMTree``, with ``FilterLifecycle`` rebuilding
    drifted filters from a rolling query sample).
``repro.evaluation``
    The FPR-vs-bits-per-key sweep driver (``python -m
    repro.evaluation.sweep``) that regenerates the paper's core figure
    family, and the LSM end-to-end driver (``python -m
    repro.evaluation.lsm_bench``) that reproduces the Fig. 9-style I/O
    comparison.
``repro.kernels``
    Compiled hot kernels behind a pluggable backend registry: fused Bloom
    probe/insert, the fused LOUDS get+rank1 traversal step and the bulk
    trie-build level pass, served by the numpy reference backend or the
    compiled ``cc`` backend (on-demand C via the system compiler) selected
    with ``REPRO_KERNEL_BACKEND``; both are pinned bit-identical.
``repro.obs``
    Dependency-free observability: the ``MetricsRegistry`` of counters /
    gauges / histograms threaded through builds and probes (``metrics=``),
    the ``ProbeTrace`` per-(query, SST) event recorder that reconciles
    exactly against ``ProbeResult``, and the ``DriftMonitor`` comparing
    observed per-batch FPR against the frozen CPFPR prediction.
``repro.serve``
    The serving layer: ``MicroBatcher`` coalescing awaited lookups into
    query batches, key-space sharding over worker processes probing
    shared-memory tree snapshots, and ``ShardedLookupService`` tying
    route → dispatch → gather together (benchmarked by
    ``python -m repro.evaluation.serve_bench``).

The most common entry points are re-exported here.  Re-exports resolve
lazily (PEP 562): a missing or broken subpackage surfaces as an error when
its *name* is touched, never at ``import repro`` time, so one incomplete
corner of the package cannot take down the rest.
"""

from importlib import import_module

_LAZY_EXPORTS = {
    "Proteus": "repro.core.proteus",
    "FastSuccinctTrie": "repro.trie.fst",
    "OnePBF": "repro.core.prf",
    "TwoPBF": "repro.core.prf",
    "CPFPRModel": "repro.core.cpfpr",
    "FilterDesign": "repro.core.design",
    "RangeFilter": "repro.filters.base",
    "TrieOracle": "repro.filters.base",
    "PrefixBloomFilter": "repro.filters.prefix_bloom",
    "PointBloomFilter": "repro.filters.prefix_bloom",
    "Rosetta": "repro.filters.rosetta",
    "SuRF": "repro.filters.surf",
    "EncodedKeySet": "repro.workloads.batch",
    "QueryBatch": "repro.workloads.batch",
    "generate_workload": "repro.workloads.generators",
    "FilterSpec": "repro.api",
    "Workload": "repro.api",
    "build_filter": "repro.api",
    "register_family": "repro.api",
    "registered_families": "repro.api",
    "allocate_sst_budgets": "repro.api",
    "derive_sst_specs": "repro.api",
    "LSMTree": "repro.lsm",
    "SSTable": "repro.lsm",
    "CostModel": "repro.lsm",
    "ProbeResult": "repro.lsm",
    "MemTable": "repro.lsm",
    "OnlineLSMTree": "repro.lsm",
    "FilterLifecycle": "repro.lsm",
    "MetricsRegistry": "repro.obs",
    "DriftMonitor": "repro.obs",
    "ProbeTrace": "repro.obs",
    "MicroBatcher": "repro.serve",
    "ServeError": "repro.serve",
    "ShardedLookupService": "repro.serve",
}

__all__ = list(_LAZY_EXPORTS)

__version__ = "1.10.0"


def __getattr__(name: str):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    try:
        module = import_module(module_name)
    except ModuleNotFoundError as exc:
        raise ImportError(
            f"{name!r} is exported by {__name__!r} but its home module "
            f"{module_name!r} is missing or incomplete"
        ) from exc
    value = getattr(module, name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
