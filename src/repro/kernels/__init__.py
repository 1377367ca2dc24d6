"""Compiled hot kernels behind a pluggable backend registry.

The batched numpy execution layer (PR 2) left loops numpy cannot fuse:
the per-hash Bloom probe round-trips (also across the many Bloom layers of
one LSM level, :func:`bloom_contains_hashed`), the rank+get pair inside
every LOUDS traversal step, the per-node Python walks of the trie
builders, and Algorithm 1's per-depth evaluation of every Bloom prefix
length (:func:`cpfpr_row` for integer keys, :func:`cpfpr_byte_row` for
byte keys).  This package exposes those loops as pure-function *kernels*
served by one of two backends:

* ``numpy`` — the vectorised reference implementation, always available;
  it defines kernel semantics and the compiled backend must match it
  bit for bit (``tests/test_kernels.py`` pins this).
* ``cc`` — the same loops as plain C, compiled on demand with the system
  C compiler and loaded via ctypes; available wherever a toolchain is.

Selection: an explicit ``backend=`` argument wins, then the
``REPRO_KERNEL_BACKEND`` environment variable, then the preference order
``cc > numpy``.  Naming a *known but unavailable* backend falls back
silently (``cc`` without a C compiler serves numpy); naming an unknown
backend raises, because that is always a typo.

>>> import repro.kernels as kernels
>>> "numpy" in kernels.available_backends()
True
>>> kernels.get_backend_name("no-such-backend")  # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
ValueError: unknown kernel backend 'no-such-backend'...

A CPFPR model calls its row kernel once per trie depth over the same
queries, so it binds them once (:func:`bind_cpfpr_row`,
:func:`bind_cpfpr_byte_row`): the :class:`RowBinding` resolves the backend
at every call, as any dispatch does, and each backend keeps what it bound
on its first call.

Observability: :func:`attach_metrics` registers per-dispatch counters
``kernels.dispatch.{backend}.{kernel}`` on a
:class:`repro.obs.metrics.MetricsRegistry`, so instrumented runs report
which backend actually served each hot path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.kernels import _numpy_backend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ENV_VAR",
    "available_backends",
    "get_backend_name",
    "use_backend",
    "attach_metrics",
    "bloom_positions",
    "bloom_add",
    "bloom_contains",
    "bloom_contains_hashed",
    "bitvector_get_rank1",
    "RowBinding",
    "bind_cpfpr_row",
    "bind_cpfpr_byte_row",
    "cpfpr_row",
    "cpfpr_byte_row",
    "trie_levels",
    "merge_runs",
]

#: Environment variable naming the default backend for the process.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Resolution order when nothing is requested explicitly.
_PREFERENCE = ("cc", "numpy")


def _load_cc():
    from repro.kernels import _cc_backend

    return _cc_backend.load()


_LOADERS: dict[str, Callable[[], Any]] = {
    "numpy": lambda: _numpy_backend,
    "cc": _load_cc,
}

_loaded: dict[str, Any] = {}
_forced: Any = None  # use_backend() override
_default: Any = None  # cached env/preference resolution
_metrics: "MetricsRegistry | None" = None


def _backend(name: str):
    """Load (once) and return the backend called ``name``, or ``None``."""
    if name not in _LOADERS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {sorted(_LOADERS)}"
        )
    if name not in _loaded:
        _loaded[name] = _LOADERS[name]()
    return _loaded[name]


def available_backends() -> tuple[str, ...]:
    """Return the names of every backend that loads in this environment.

    ``numpy`` is always present; ``cc`` appears when a C compiler does.
    Order follows the resolution preference.
    """
    return tuple(n for n in _PREFERENCE if _backend(n) is not None)


def _resolve(name: str | None):
    """Return the backend object serving a dispatch.

    Explicit ``name`` wins (silently falling back to numpy when that
    backend is known but unavailable); otherwise the :func:`use_backend`
    override, then the cached ``REPRO_KERNEL_BACKEND``/preference default.
    """
    global _default
    if name is not None:
        return _backend(name) or _backend("numpy")
    if _forced is not None:
        return _forced
    if _default is None:
        requested = os.environ.get(ENV_VAR)
        if requested:
            _default = _backend(requested) or _backend("numpy")
        else:
            for candidate in _PREFERENCE:
                backend = _backend(candidate)
                if backend is not None:
                    _default = backend
                    break
    return _default


def get_backend_name(name: str | None = None) -> str:
    """Return the name of the backend a dispatch would use right now."""
    return _resolve(name).name


def reset_default_backend() -> None:
    """Drop the cached default so ``REPRO_KERNEL_BACKEND`` is re-read."""
    global _default
    _default = None


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Force every dispatch in the ``with`` body onto backend ``name``.

    The usual silent-fallback rule applies: a known but unavailable
    backend resolves to numpy.  Yields the name actually in force.
    """
    global _forced
    previous = _forced
    _forced = _backend(name) or _backend("numpy")
    try:
        yield _forced.name
    finally:
        _forced = previous


def attach_metrics(metrics: "MetricsRegistry | None") -> None:
    """Count every dispatch as ``kernels.dispatch.{backend}.{kernel}``.

    Pass ``None`` to detach.  The disabled path costs one ``is None``
    check per kernel call — the same contract as the rest of ``repro.obs``.
    """
    global _metrics
    _metrics = metrics


def _count(backend_name: str, kernel: str) -> None:
    if _metrics is not None:
        _metrics.inc(f"kernels.dispatch.{backend_name}.{kernel}")


# --------------------------------------------------------------------- #
# Kernel entry points                                                   #
# --------------------------------------------------------------------- #


def bloom_positions(
    values: np.ndarray, s1: int, s2: int, num_bits: int, k: int,
    backend: str | None = None,
) -> np.ndarray:
    """Return the ``(k, n)`` Bloom probe-position matrix (uint64).

    ``s1``/``s2`` are the pre-mixed double-hashing seeds.  Served by the
    numpy reference on every backend — the compiled backends fuse the
    positions into :func:`bloom_add`/:func:`bloom_contains` instead of
    materialising the matrix.
    """
    resolved = _resolve(backend)
    impl = getattr(resolved, "bloom_positions", None)
    if impl is None:
        resolved = _backend("numpy")
        impl = resolved.bloom_positions
    _count(resolved.name, "bloom_positions")
    return impl(values, s1, s2, num_bits, k)


def bloom_add(
    buffer: np.ndarray, num_bits: int, values: np.ndarray,
    s1: int, s2: int, k: int, backend: str | None = None,
) -> None:
    """Insert hashed ``values`` into the packed bit ``buffer`` in place."""
    resolved = _resolve(backend)
    _count(resolved.name, "bloom_add")
    resolved.bloom_add(buffer, num_bits, values, s1, s2, k)


def bloom_contains(
    buffer: np.ndarray, num_bits: int, values: np.ndarray,
    s1: int, s2: int, k: int, backend: str | None = None,
) -> np.ndarray:
    """Return one bool per value: every probe position set in ``buffer``."""
    resolved = _resolve(backend)
    _count(resolved.name, "bloom_contains")
    return resolved.bloom_contains(buffer, num_bits, values, s1, s2, k)


def bloom_contains_hashed(
    buffer: np.ndarray, byte_offsets: np.ndarray, num_bits: np.ndarray,
    num_hashes: np.ndarray, h1: np.ndarray, h2: np.ndarray,
    backend: str | None = None,
) -> np.ndarray:
    """Probe hashed items, each against its own filter in one shared buffer.

    ``buffer`` concatenates Bloom bit arrays; item ``j`` (hash pair
    ``h1[j]``, ``h2[j]``) is probed in the one at byte ``byte_offsets[j]``
    with ``num_bits[j]`` bits and ``num_hashes[j]`` probes.  Returns one
    bool per item.  This is how an LSM level answers every routed probe
    of its Proteus Bloom layers in one call.  The caller vouches that
    every ``num_bits[j]`` is positive and that each item's filter lies
    inside ``buffer`` (the level layout derives both from the filters it
    lays out); only the per-item array lengths are checked.
    """
    resolved = _resolve(backend)
    _count(resolved.name, "bloom_contains_hashed")
    return resolved.bloom_contains_hashed(buffer, byte_offsets, num_bits, num_hashes, h1, h2)


def bitvector_get_rank1(
    buffer: np.ndarray, cumulative: np.ndarray, num_bits: int,
    positions: np.ndarray, backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused LOUDS step: ``(bit at pos, rank1(pos + 1))`` per position."""
    resolved = _resolve(backend)
    _count(resolved.name, "bitvector_get_rank1")
    return resolved.bitvector_get_rank1(buffer, cumulative, num_bits, positions)


class RowBinding:
    """One CPFPR model's empty sample queries, bound to a row-pass kernel.

    ``binding(trie_depth, lens, num_bits)`` runs one trie depth of
    Algorithm 1 (:func:`cpfpr_row` or :func:`cpfpr_byte_row`) on the
    backend a dispatch would use at that moment, counted as one dispatch
    of that kernel.  Each backend binds the queries on its first call and
    keeps them, so later calls pass only the row: the compiled backend
    addresses the arrays and sizes its buffers once, the numpy one
    memoises byte slot counts.
    """

    __slots__ = ("_kernel", "_args", "_bound")

    def __init__(self, kernel: str, args: tuple):
        self._kernel = kernel
        self._args = args
        self._bound: dict[str, Callable[..., np.ndarray]] = {}

    def __call__(
        self, trie_depth: int, lens, num_bits: int, backend: str | None = None
    ) -> np.ndarray:
        resolved = _resolve(backend)
        _count(resolved.name, self._kernel)
        bound = self._bound.get(resolved.name)
        if bound is None:
            bound = getattr(resolved, f"bind_{self._kernel}")(*self._args)
            self._bound[resolved.name] = bound
        return bound(trie_depth, lens, num_bits)


def bind_cpfpr_row(
    los: np.ndarray, his: np.ndarray, lcps: np.ndarray, lo_lcps: np.ndarray,
    hi_lcps: np.ndarray, width: int, max_probes: int, prefix_counts: np.ndarray,
) -> RowBinding:
    """An integer model's queries bound to :func:`cpfpr_row`; see there."""
    return RowBinding(
        "cpfpr_row", (los, his, lcps, lo_lcps, hi_lcps, width, max_probes, prefix_counts)
    )


def cpfpr_row(
    los: np.ndarray, his: np.ndarray, lcps: np.ndarray, lo_lcps: np.ndarray,
    hi_lcps: np.ndarray, width: int, max_probes: int, trie_depth: int,
    lens: np.ndarray, num_bits: int, prefix_counts: np.ndarray,
    backend: str | None = None,
) -> np.ndarray:
    """Expected FPRs of the Proteus designs ``(trie_depth, l2, num_bits)``.

    One float64 per ``l2`` in the int64 array ``lens``, over an integer
    CPFPR model's empty sample queries: stored bounds ``los``/``his``,
    ``lcps`` = ``L(q)`` and its halves ``lo_lcps``/``hi_lcps``; ``width``
    is at most 64 and ``prefix_counts[l]`` is ``|K_l|``.  This is one
    trie depth of Algorithm 1; see
    :func:`repro.kernels._numpy_backend.cpfpr_row` for the exact
    contract.  Every ``l2`` must lie in ``(trie_depth, width]``.  The
    compiled backend sums in numpy's pairwise order and builds the
    ``(1 - p)^k`` table with numpy's power, so every value equals the
    reference's bit for bit on one host.  This is a one-call
    :func:`bind_cpfpr_row`; a model binds once and calls per depth.
    """
    binding = bind_cpfpr_row(los, his, lcps, lo_lcps, hi_lcps, width, max_probes, prefix_counts)
    return binding(trie_depth, lens, num_bits, backend)


def bind_cpfpr_byte_row(
    lo_rows: np.ndarray, hi_rows: np.ndarray, lcps: np.ndarray, max_probes: int,
    prefix_counts: np.ndarray,
) -> RowBinding:
    """A byte model's queries bound to :func:`cpfpr_byte_row`; see there."""
    return RowBinding("cpfpr_byte_row", (lo_rows, hi_rows, lcps, max_probes, prefix_counts))


def cpfpr_byte_row(
    lo_rows: np.ndarray, hi_rows: np.ndarray, lcps: np.ndarray, max_probes: int,
    trie_depth: int, lens: np.ndarray, num_bits: int, prefix_counts: np.ndarray,
    backend: str | None = None,
) -> np.ndarray:
    """:func:`cpfpr_row` for a byte-keyed CPFPR model.

    The empty sample queries are the ``uint8`` rows ``lo_rows``/``hi_rows``
    of their zero-padded bounds (``width = 8 * columns``) and ``lcps`` =
    ``L(q)``.  A gated query probes every ``l2``-slot of its interval, and
    :func:`repro.keys.bytestr.byte_slot_bounds` decides its clamp; see
    :func:`repro.kernels._numpy_backend.cpfpr_byte_row` for the exact
    contract.  Lengths outside ``(trie_depth, width]`` raise
    ``ValueError``.  Compiled values equal the reference's bit for bit, as
    :func:`cpfpr_row`'s do.
    """
    binding = bind_cpfpr_byte_row(lo_rows, hi_rows, lcps, max_probes, prefix_counts)
    return binding(trie_depth, lens, num_bits, backend)


def merge_runs(
    keys: np.ndarray, tombstones: np.ndarray, priorities: np.ndarray,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Newest-wins merge of concatenated sorted runs (the compaction core).

    Served by the numpy reference on every backend until a compiled
    implementation lands — the dispatch still counts, so instrumented
    compactions report ``kernels.dispatch.{backend}.merge_runs``.
    """
    resolved = _resolve(backend)
    impl = getattr(resolved, "merge_runs", None)
    if impl is None:
        resolved = _backend("numpy")
        impl = resolved.merge_runs
    _count(resolved.name, "merge_runs")
    return impl(keys, tombstones, priorities)


def trie_levels(
    mat: np.ndarray, lengths: np.ndarray, backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-level edge arrays of a sorted prefix-free byte-string matrix.

    Returns ``(labels, parents, leaves, edge_counts, group_counts)``; see
    :func:`repro.kernels._numpy_backend.trie_levels` for the exact
    contract the succinct-trie encoders consume.
    """
    resolved = _resolve(backend)
    _count(resolved.name, "trie_levels")
    return resolved.trie_levels(mat, lengths)
