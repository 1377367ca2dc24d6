"""The ``cc`` backend: the C kernels, compiled on demand with the system
C compiler and loaded through ctypes.

No Python extension machinery is involved — ``_ckernels.c`` is plain C with
no ``Python.h`` dependency, compiled once per source hash into a cached
shared object (``$REPRO_KERNEL_CACHE`` or the system temp directory).  Any
failure (no compiler, sandboxed filesystem, broken toolchain) makes
:func:`load` return ``None`` and the registry silently falls back, so this
backend can never take an environment down.
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

_u8_p = ctypes.POINTER(ctypes.c_uint8)
_u64_p = ctypes.POINTER(ctypes.c_uint64)
_i64_p = ctypes.POINTER(ctypes.c_int64)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _compile() -> Path:
    """Compile the C source (once per content hash) and return the .so path."""
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    tag = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    lib_path = _cache_dir() / f"ckernels-{tag}.so"
    if not lib_path.exists():
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        scratch = lib_path.with_name(f"{lib_path.stem}.{os.getpid()}.tmp.so")
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", str(scratch), str(_SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(scratch, lib_path)  # atomic: concurrent builders agree
    return lib_path


def _ptr(array: np.ndarray, ctype):  # noqa: ANN001 - ctypes pointer type
    return array.ctypes.data_as(ctypes.POINTER(ctype))


class _CcBackend:
    """Kernel entry points bound to the compiled shared object."""

    name = "cc"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.bloom_add.argtypes = [
            _u8_p, ctypes.c_uint64, _u64_p, ctypes.c_int64,
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int64,
        ]
        lib.bloom_add.restype = None
        lib.bloom_contains.argtypes = [
            _u8_p, ctypes.c_uint64, _u64_p, ctypes.c_int64,
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int64, _u8_p,
        ]
        lib.bloom_contains.restype = None
        # Raw addresses: the level pass calls this once per LSM level per
        # probe, where building seven typed pointers costs more than the work.
        lib.bloom_contains_hashed.argtypes = [ctypes.c_void_p] * 6 + [
            ctypes.c_int64, ctypes.c_void_p,
        ]
        lib.bloom_contains_hashed.restype = None
        lib.bitvector_get_rank1.argtypes = [
            _u8_p, _i64_p, ctypes.c_int64, _i64_p, ctypes.c_int64, _u8_p, _i64_p,
        ]
        lib.bitvector_get_rank1.restype = None
        lib.trie_levels.argtypes = [
            _u8_p, _i64_p, ctypes.c_int64, ctypes.c_int64,
            _u8_p, _i64_p, _u8_p, _i64_p, _i64_p, _i64_p, _i64_p,
        ]
        lib.trie_levels.restype = ctypes.c_int64

    def bloom_add(self, buffer, num_bits, values, s1, s2, k):
        v = np.ascontiguousarray(np.asarray(values).astype(np.uint64, copy=False))
        self._lib.bloom_add(
            _ptr(buffer, ctypes.c_uint8), num_bits, _ptr(v, ctypes.c_uint64),
            v.size, s1, s2, k,
        )

    def bloom_contains(self, buffer, num_bits, values, s1, s2, k):
        v = np.ascontiguousarray(np.asarray(values).astype(np.uint64, copy=False))
        out = np.empty(v.size, dtype=np.uint8)
        self._lib.bloom_contains(
            _ptr(buffer, ctypes.c_uint8), num_bits, _ptr(v, ctypes.c_uint64),
            v.size, s1, s2, k, _ptr(out, ctypes.c_uint8),
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
            buf.ctypes.data, offsets.ctypes.data, bits.ctypes.data,
            hashes.ctypes.data, a.ctypes.data, b.ctypes.data, a.size, out.ctypes.data,
        )
        return out.view(bool)

    def bitvector_get_rank1(self, buffer, cumulative, num_bits, positions):
        pos = np.ascontiguousarray(positions, dtype=np.int64)
        bits = np.empty(pos.size, dtype=np.uint8)
        ranks = np.empty(pos.size, dtype=np.int64)
        self._lib.bitvector_get_rank1(
            _ptr(buffer, ctypes.c_uint8), _ptr(cumulative, ctypes.c_int64),
            num_bits, _ptr(pos, ctypes.c_int64), pos.size,
            _ptr(bits, ctypes.c_uint8), _ptr(ranks, ctypes.c_int64),
        )
        return bits.view(bool), ranks

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
            _ptr(mat, ctypes.c_uint8), _ptr(lengths, ctypes.c_int64), n, height,
            _ptr(labels, ctypes.c_uint8), _ptr(parents, ctypes.c_int64),
            _ptr(leaves, ctypes.c_uint8), _ptr(edge_counts, ctypes.c_int64),
            _ptr(group_counts, ctypes.c_int64), _ptr(grp, ctypes.c_int64),
            _ptr(idx, ctypes.c_int64),
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
