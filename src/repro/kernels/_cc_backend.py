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
        lib.cpfpr_row.argtypes = [ptr] * 5 + [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_uint64, ctypes.c_int64,
            ptr, ctypes.c_int64, ptr, ctypes.c_int64, ptr,
        ]
        lib.cpfpr_row.restype = ctypes.c_int64

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

    def cpfpr_row(self, los, his, lcps, lo_lcps, hi_lcps, width, max_probes,
                  trie_depth, lens, num_bits, prefix_counts):
        arrays = [
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (los, his, lcps, lo_lcps, hi_lcps, lens, prefix_counts)
        ]
        n, rows, counts = arrays[0].size, arrays[5].size, arrays[6].size
        if any(a.size != n for a in arrays[1:5]):
            raise ValueError("los, his, lcps, lo_lcps and hi_lcps differ in length")
        addresses = [_address(a) for a in arrays]
        keep = np.empty((rows, 1))  # each row's 1 - p, a column for the table
        if self._lib.cpfpr_bloom_keep(
            num_bits, addresses[6], counts, addresses[5], rows, _address(keep)
        ):
            raise ValueError(f"prefix lengths {arrays[5].tolist()} outside prefix_counts")
        out = np.empty(rows)
        out_address = _address(out)
        size = min(max_probes, _TABLE_PROBES) + 1
        while True:
            # numpy's power, as in the reference: libm's pow differs from
            # it in the last bit on some hosts.
            table = 1.0 - keep ** np.arange(size, dtype=np.float64)
            largest = self._lib.cpfpr_row(
                *addresses[:5], n, width, min(max_probes, 2**64 - 1), trie_depth,
                addresses[5], rows, _address(table), size, out_address,
            )
            if largest == -2:
                raise ValueError(
                    f"prefix lengths {arrays[5].tolist()} must lie in ({trie_depth}, {width}]"
                )
            if largest < 0:
                raise MemoryError("cpfpr_row could not allocate its workspace")
            if largest < size:
                return out
            size = largest + 1

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
