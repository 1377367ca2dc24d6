"""The ``cc`` backend: the C kernels, compiled on demand with the system
C compiler and loaded through ctypes.

No Python extension machinery is involved — ``_ckernels.c`` is plain C with
no ``Python.h`` dependency, compiled into a cached shared object
(``$REPRO_KERNEL_CACHE`` or the system temp directory) named after a hash
of the source and of the command line that builds it, so a changed flag
never reuses a stale object.  Any failure (no compiler, sandboxed
filesystem, broken toolchain) makes :func:`load` return ``None`` and the
registry silently falls back, so this backend can never take an
environment down.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

name = "cc"

_SOURCE = Path(__file__).with_name("_ckernels.c")

#: Compiler flags.  ``-ffp-contract=off`` keeps the compiler from fusing a
#: multiply and an add where FMA is baseline (aarch64, for one): kernels
#: whose floating-point results must equal numpy's may not be fused.
_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

#: Libraries, after the source on the command line: the CPFPR kernels call
#: libm's ``exp``, ``log``, ``pow`` and ``ceil``.
_LIBS = ("-lm",)

#: Probe counts the first ``(1 - p)^k`` table of a row pass covers: all of
#: them up to the filters' default ``max_probes``.  A pass that meets a
#: larger count reports it and runs again with a table that wide.
_TABLE_PROBES = 64

def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _library_path(compiler: str, flags=_FLAGS, libs=_LIBS) -> Path:
    """The cached shared object built from the source by this command line."""
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update("\0".join((compiler, *flags, "--", *libs)).encode())
    return _cache_dir() / f"ckernels-{digest.hexdigest()[:16]}.so"


def _compile() -> Path:
    """Compile the C source (once per source and command line) and return the .so path."""
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    lib_path = _library_path(compiler)
    if not lib_path.exists():
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        scratch = lib_path.with_name(f"{lib_path.stem}.{os.getpid()}.tmp.so")
        subprocess.run(
            [compiler, *_FLAGS, "-o", str(scratch), str(_SOURCE), *_LIBS],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(scratch, lib_path)  # atomic: concurrent builders agree
    return lib_path


def _address(array: np.ndarray) -> int:
    """The data address of a C-contiguous array, passed as a ``void *``.

    Every kernel takes its arrays this way.  ``from_buffer`` costs a
    quarter of ``array.ctypes.data``, which counts where a call passes
    many small arrays; it needs a writable, non-empty buffer, so other
    arrays take the slow path.
    """
    if array.size and array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


class _Rows(ctypes.Structure):
    """The C side's ``cpfpr_rows``: one model's queries and row buffers."""

    _fields_ = [
        ("n", ctypes.c_int64), ("width", ctypes.c_int64), ("max_probes", ctypes.c_uint64),
        ("prefix_counts", ctypes.c_void_p), ("num_counts", ctypes.c_int64),
        *((field, ctypes.c_void_p) for field in (
            "lcps", "los", "his", "lo_lcps", "hi_lcps", "first_bits", "lo_windows", "hi_windows",
            "lens", "keep", "table",
        )),
        ("table_width", ctypes.c_int64),
        *((field, ctypes.c_void_p) for field in ("out", "work", "values")),
    ]


class _BoundRows:
    """One CPFPR model's empty queries bound to a C row kernel.

    The arrays the kernel reads and every buffer a row call writes are
    addressed once, in a ``cpfpr_rows`` struct, so a call passes three
    scalars to each of its two C calls.  The per-call buffers grow to the
    most rows a call has asked for; every call shares them, so one binding
    serves one thread at a time.
    """

    def __init__(self, lib, kernel, lcps, width, max_probes, prefix_counts, arrays):
        self._keep_rows = lib.cpfpr_rows_keep
        self._kernel = getattr(lib, kernel)
        counts = np.ascontiguousarray(prefix_counts, dtype=np.int64)
        self._arrays = {**arrays, "lcps": lcps, "prefix_counts": counts}
        n = lcps.size
        self._rows = rows = _Rows(
            n=n, width=width, max_probes=min(max_probes, 2**64 - 1), num_counts=counts.size
        )
        self._work = np.empty(4 * n, dtype=np.int64)
        self._values = np.empty(n)
        for field, array in (*self._arrays.items(), ("work", self._work),
                             ("values", self._values)):
            setattr(rows, field, _address(array))
        self._ref = ctypes.addressof(rows)
        #: The first table's columns, probe counts 0 to min(max_probes, 64).
        self._exponents = np.arange(min(max_probes, _TABLE_PROBES) + 1, dtype=np.float64)
        self._reserve(0)

    def _reserve(self, capacity: int) -> None:
        """Per-call buffers for ``capacity`` rows."""
        self._lens = np.empty(capacity, dtype=np.int64)
        self._keep = np.empty((capacity, 1))  # each row's 1 - p, a column for the table
        self._table = np.empty((capacity, self._exponents.size))
        self._out = np.empty(capacity)
        for field in ("lens", "keep", "table", "out"):
            setattr(self._rows, field, _address(getattr(self, f"_{field}")))
        self._rows.table_width = self._exponents.size

    def __call__(self, trie_depth, lens, num_bits):
        rows = len(lens)
        if rows > self._out.size:
            self._reserve(rows)
        self._lens[:rows] = lens
        if self._keep_rows(self._ref, num_bits, rows):
            raise ValueError(f"prefix lengths {self._lens[:rows].tolist()} outside prefix_counts")
        largest = self._pass(self._table, self._exponents, trie_depth, rows)
        if largest >= self._exponents.size:
            # A count past the first table: once more with a table that wide.
            exponents = np.arange(largest + 1, dtype=np.float64)
            table = np.empty((rows, exponents.size))
            self._rows.table, self._rows.table_width = _address(table), exponents.size
            try:
                self._pass(table, exponents, trie_depth, rows)
            finally:
                self._rows.table = _address(self._table)
                self._rows.table_width = self._exponents.size
        return self._out[:rows].copy()

    def _pass(self, table, exponents, trie_depth, rows) -> int:
        """Fill ``table`` with ``keep ** k``, run the kernel, return its largest k."""
        # numpy's power, as in the reference: libm's pow differs from it
        # in the last bit on some hosts.  The kernel subtracts it from 1.
        np.power(self._keep[:rows], exponents, out=table[:rows])
        largest = self._kernel(self._ref, trie_depth, rows)
        if largest == -2:
            raise ValueError(
                f"prefix lengths {self._lens[:rows].tolist()} must lie in "
                f"({trie_depth}, {self._rows.width}]"
            )
        return largest


class _CcBackend:
    """Kernel entry points bound to the compiled shared object."""

    name = "cc"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        # Arrays cross as raw addresses (``_address``) into ``void *``
        # parameters; scalars keep their C types.
        ptr = ctypes.c_void_p
        lib.bloom_add.argtypes = [
            ptr, ctypes.c_uint64, ptr, ctypes.c_int64,
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int64,
        ]
        lib.bloom_add.restype = None
        lib.bloom_contains.argtypes = [
            ptr, ctypes.c_uint64, ptr, ctypes.c_int64,
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int64, ptr,
        ]
        lib.bloom_contains.restype = None
        lib.bloom_contains_hashed.argtypes = [ptr] * 6 + [ctypes.c_int64, ptr]
        lib.bloom_contains_hashed.restype = None
        lib.bitvector_get_rank1.argtypes = [
            ptr, ptr, ctypes.c_int64, ptr, ctypes.c_int64, ptr, ptr,
        ]
        lib.bitvector_get_rank1.restype = None
        lib.trie_levels.argtypes = [
            ptr, ptr, ctypes.c_int64, ctypes.c_int64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        lib.trie_levels.restype = ctypes.c_int64
        lib.cpfpr_bloom_keep.argtypes = [
            ctypes.c_int64, ptr, ctypes.c_int64, ptr, ctypes.c_int64, ptr,
        ]
        lib.cpfpr_bloom_keep.restype = ctypes.c_int64
        lib.cpfpr_byte_windows.argtypes = [ptr, ptr, ctypes.c_int64, ctypes.c_int64, ptr, ptr, ptr]
        lib.cpfpr_byte_windows.restype = None
        for kernel in (lib.cpfpr_rows_keep, lib.cpfpr_row, lib.cpfpr_byte_row):
            kernel.argtypes = [ptr, ctypes.c_int64, ctypes.c_int64]
            kernel.restype = ctypes.c_int64

    def bloom_add(self, buffer, num_bits, values, s1, s2, k):
        v = np.ascontiguousarray(np.asarray(values).astype(np.uint64, copy=False))
        self._lib.bloom_add(_address(buffer), num_bits, _address(v), v.size, s1, s2, k)

    def bloom_contains(self, buffer, num_bits, values, s1, s2, k):
        v = np.ascontiguousarray(np.asarray(values).astype(np.uint64, copy=False))
        out = np.empty(v.size, dtype=np.uint8)
        self._lib.bloom_contains(
            _address(buffer), num_bits, _address(v), v.size, s1, s2, k, _address(out)
        )
        return out.view(bool)

    def bloom_contains_hashed(self, buffer, byte_offsets, num_bits, num_hashes, h1, h2):
        buf = np.ascontiguousarray(buffer, dtype=np.uint8)
        offsets = np.ascontiguousarray(byte_offsets, dtype=np.int64)
        bits = np.ascontiguousarray(num_bits, dtype=np.uint64)
        hashes = np.ascontiguousarray(num_hashes, dtype=np.int64)
        a = np.ascontiguousarray(h1, dtype=np.uint64)
        b = np.ascontiguousarray(h2, dtype=np.uint64)
        if not offsets.size == bits.size == hashes.size == a.size == b.size:
            raise ValueError("byte_offsets, num_bits, num_hashes, h1 and h2 differ in length")
        out = np.empty(a.size, dtype=np.uint8)
        self._lib.bloom_contains_hashed(
            *map(_address, (buf, offsets, bits, hashes, a, b)), a.size, _address(out)
        )
        return out.view(bool)

    def bitvector_get_rank1(self, buffer, cumulative, num_bits, positions):
        pos = np.ascontiguousarray(positions, dtype=np.int64)
        bits = np.empty(pos.size, dtype=np.uint8)
        ranks = np.empty(pos.size, dtype=np.int64)
        self._lib.bitvector_get_rank1(
            _address(buffer), _address(cumulative), num_bits, _address(pos), pos.size,
            _address(bits), _address(ranks),
        )
        return bits.view(bool), ranks

    def bind_cpfpr_row(self, los, his, lcps, lo_lcps, hi_lcps, width, max_probes,
                       prefix_counts):
        columns = [np.ascontiguousarray(a, dtype=np.int64) for a in (los, his, lo_lcps, hi_lcps)]
        lcps = np.ascontiguousarray(lcps, dtype=np.int64)
        if any(a.size != lcps.size for a in columns):
            raise ValueError("los, his, lcps, lo_lcps and hi_lcps differ in length")
        return _BoundRows(
            self._lib, "cpfpr_row", lcps, width, max_probes, prefix_counts,
            dict(zip(("los", "his", "lo_lcps", "hi_lcps"), columns)),
        )

    def bind_cpfpr_byte_row(self, lo_rows, hi_rows, lcps, max_probes, prefix_counts):
        lo_rows = np.ascontiguousarray(lo_rows, dtype=np.uint8)
        hi_rows = np.ascontiguousarray(hi_rows, dtype=np.uint8)
        lcps = np.ascontiguousarray(lcps, dtype=np.int64)
        if lo_rows.ndim != 2 or lo_rows.shape != hi_rows.shape or lo_rows.shape[0] != lcps.size:
            raise ValueError("lo_rows, hi_rows and lcps differ in shape")
        n, stride = lo_rows.shape
        windows = {
            "first_bits": np.empty(n, dtype=np.int64),
            "lo_windows": np.empty(n, dtype=np.uint64),
            "hi_windows": np.empty(n, dtype=np.uint64),
        }
        self._lib.cpfpr_byte_windows(
            _address(lo_rows), _address(hi_rows), n, stride, *map(_address, windows.values())
        )
        return _BoundRows(
            self._lib, "cpfpr_byte_row", lcps, 8 * stride, max_probes, prefix_counts, windows
        )

    def trie_levels(self, mat, lengths):
        mat = np.ascontiguousarray(mat, dtype=np.uint8)
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        n, height = mat.shape
        capacity = max(1, int(lengths.sum()))
        labels = np.empty(capacity, dtype=np.uint8)
        parents = np.empty(capacity, dtype=np.int64)
        leaves = np.empty(capacity, dtype=np.uint8)
        edge_counts = np.zeros(height, dtype=np.int64)
        group_counts = np.zeros(height, dtype=np.int64)
        grp = np.empty(n, dtype=np.int64)
        idx = np.empty(n, dtype=np.int64)
        total = self._lib.trie_levels(
            _address(mat), _address(lengths), n, height,
            *map(_address, (labels, parents, leaves, edge_counts, group_counts, grp, idx)),
        )
        return (
            labels[:total].copy(), parents[:total].copy(),
            leaves[:total].view(bool).copy(), edge_counts, group_counts,
        )


def load() -> _CcBackend | None:
    """Compile (or reuse) the shared object; ``None`` when impossible."""
    try:
        return _CcBackend(ctypes.CDLL(str(_compile())))
    except Exception:  # no compiler / read-only tmp / exotic toolchains
        return None
