"""Kernel benchmark: every ``repro.kernels`` backend against the numpy
reference, with parity gating.

For each kernel (``bloom_add``, ``bloom_contains``,
``bloom_contains_hashed``, ``bitvector_get_rank1``, ``trie_levels``,
``cpfpr_row``, ``cpfpr_byte_row``) and every backend available in this
environment, the harness:

* checks **parity** first — the backend's output must be byte-identical to
  the numpy reference on the same seeded inputs (a mismatch fails the run
  regardless of any flag: a speedup may never be bought with a wrong
  answer);
* reports the **median** wall time over ``--repeats`` runs and the speedup
  relative to numpy.

Results go to a JSON report.  The committed reference is produced with
several ``--rounds`` so its speedups are per-(kernel, backend) minima —
a conservative floor rather than one lucky run::

    python -m repro.evaluation.kernel_bench --rounds 5 --output BENCH_pr7.json

``--check-against BENCH_pr7.json`` re-runs the suite and fails when any
(kernel, backend) speedup regressed more than ``--tolerance`` (default
0.2, i.e. 20%) below the committed report — the CI smoke gate.  Backends
present in the committed report but absent in this environment are
skipped: the committed numbers document what the compiled backends
achieve, not what every runner must have installed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Callable

import numpy as np

from repro import kernels
from repro.amq.bitarray import BitArray
from repro.amq.bloom import bloom_hash_count
from repro.amq.hashing import hash_pair_many, premixed_pair_seeds
from repro.core.cpfpr import CPFPRModel
from repro.evaluation.gates import check_regressions
from repro.keys.lcp import query_neighbour_lcps_many, unique_prefix_counts_array
from repro.trie.bitvector import RankSelectBitVector

__all__ = ["run_kernel_bench", "main"]


def _median_time(fn: Callable[[], object], repeats: int) -> float:
    """Return the median wall time of ``repeats`` calls to ``fn``."""
    samples: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _make_cases(scale: float, seed: int) -> dict[str, Callable[[str], bytes]]:
    """Build the seeded per-kernel runners.

    Each runner takes a backend name and returns a bytes digest of the
    kernel's full output, so parity is an exact ``==`` between backends.
    """
    rng = np.random.default_rng(seed)

    # Bloom: n values at ~12 bits per key, the sweep's default budget.
    n = max(1_000, int(200_000 * scale))
    num_bits = 8 * ((12 * n + 7) // 8)
    k = bloom_hash_count(num_bits, n)
    s1, s2 = premixed_pair_seeds(seed)
    values = rng.integers(0, 1 << 62, size=n, dtype=np.int64)
    buf_bytes = num_bits // 8
    filled = np.zeros(buf_bytes, dtype=np.uint8)
    kernels.bloom_add(
        filled, num_bits, values[: n // 2], s1, s2, k, backend="numpy"
    )
    probes = np.concatenate(
        [values[: n // 2], rng.integers(0, 1 << 62, size=n // 2, dtype=np.int64)]
    )

    def bloom_add_case(backend: str) -> bytes:
        buf = np.zeros(buf_bytes, dtype=np.uint8)
        kernels.bloom_add(buf, num_bits, values, s1, s2, k, backend=backend)
        return buf.tobytes()

    def bloom_contains_case(backend: str) -> bytes:
        return kernels.bloom_contains(
            filled, num_bits, probes, s1, s2, k, backend=backend
        ).tobytes()

    # LOUDS step: a half-full bit vector probed at random positions.
    bv_bits = max(4_096, int((1 << 20) * scale))
    set_count = bv_bits // 2
    bits = BitArray(bv_bits)
    bits.set_many(
        rng.choice(np.int64(bv_bits), size=set_count, replace=False)
    )
    vector = RankSelectBitVector(bits)
    positions = rng.integers(0, bv_bits, size=max(10_000, int(500_000 * scale)))

    def bitvector_case(backend: str) -> bytes:
        got_bits, got_ranks = kernels.bitvector_get_rank1(
            vector._byte_buffer, vector._byte_cumulative, vector.num_bits,
            positions, backend=backend,
        )
        return got_bits.tobytes() + got_ranks.tobytes()

    # Trie build: sorted distinct 4-byte prefixes (equal length is
    # prefix-free by construction), the FST bulk builder's inner pass.
    num_prefixes = max(5_000, int(150_000 * scale))
    prefix_vals = np.unique(
        rng.integers(0, 1 << 32, size=num_prefixes, dtype=np.int64)
    )
    shifts = 8 * np.arange(3, -1, -1, dtype=np.int64)
    mat = ((prefix_vals[:, None] >> shifts[None, :]) & 0xFF).astype(np.uint8)
    lengths = np.full(prefix_vals.size, 4, dtype=np.int64)

    def trie_case(backend: str) -> bytes:
        parts = kernels.trie_levels(mat, lengths, backend=backend)
        return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)

    # Level probe: the Bloom probes spread over 64 filters of mixed sizes
    # laid out in one buffer, as an LSM level's Proteus Bloom layers are
    # (drawn last, so the other kernels' inputs match earlier reports).
    filter_bytes = rng.integers(num_bits // 512, num_bits // 32, size=64) // 8 + 1
    offsets = np.concatenate([[0], np.cumsum(filter_bytes)[:-1]])
    level = rng.integers(0, 256, size=int(filter_bytes.sum()), dtype=np.uint8)
    owner = rng.integers(0, filter_bytes.size, size=probes.size)
    owner_bits = (8 * filter_bytes)[owner].astype(np.uint64)
    owner_hashes = rng.integers(1, 33, size=filter_bytes.size)[owner]
    h1, h2 = hash_pair_many(probes, seed)

    def bloom_contains_hashed_case(backend: str) -> bytes:
        return kernels.bloom_contains_hashed(
            level, offsets[owner], owner_bits, owner_hashes, h1, h2, backend=backend
        ).tobytes()

    # Algorithm 1's row pass: every other trie depth of a design over
    # 32-bit keys sampled by 1-1000-wide ranges (the write-churn shape),
    # each depth's full row of Bloom prefix lengths at 12 bits per key
    # (drawn last, like the level probe).
    width = 32
    sample_keys = np.unique(rng.integers(0, 1 << width, size=max(512, int(16_384 * scale))))
    num_samples = max(1_024, int(8_192 * scale))
    sample_los = rng.integers(0, (1 << width) - 1_001, size=num_samples)
    sample_his = sample_los + rng.integers(1, 1_001, size=num_samples)
    lo_lcps, hi_lcps = query_neighbour_lcps_many(sample_keys, sample_los, sample_his, width)
    lcps = np.maximum(lo_lcps, hi_lcps)
    empty = lcps < width
    row_queries = [a[empty] for a in (sample_los, sample_his, lcps, lo_lcps, hi_lcps)]
    prefix_counts = unique_prefix_counts_array(sample_keys, width)

    def cpfpr_row_case(backend: str) -> bytes:
        rows = [
            kernels.cpfpr_row(
                *row_queries, width, 64, l1, np.arange(l1 + 1, width + 1),
                12 * sample_keys.size, prefix_counts, backend=backend,
            )
            for l1 in range(0, width, 2)
        ]
        return np.concatenate(rows).tobytes()

    # The byte-key row pass: every trie depth of a design over YCSB-shaped
    # ``user<10-digit id>`` keys sampled by scans of 1-100 ids, each
    # depth's row of byte-aligned Bloom prefix lengths at 12 bits per key,
    # over the empty sample queries of the model Algorithm 1 would search
    # (drawn last, like the level probe).
    ids = np.unique(rng.integers(0, 10**7, size=max(512, int(16_384 * scale))))
    starts = rng.integers(0, 10**7, size=max(1_024, int(8_192 * scale)))
    ends = starts + rng.integers(1, 101, size=starts.size)
    user = lambda values: [b"user%010d" % v for v in values.tolist()]  # noqa: E731
    byte_model = CPFPRModel(user(ids), 8 * 14, list(zip(user(starts), user(ends))))
    byte_queries = (byte_model._empty_lo_m, byte_model._empty_hi_m, byte_model._empty_lcp)
    byte_counts = byte_model._prefix_count_array

    def cpfpr_byte_row_case(backend: str) -> bytes:
        rows = [
            kernels.cpfpr_byte_row(
                *byte_queries, 64, l1, np.arange(l1 + 8, 8 * 14 + 1, 8),
                12 * ids.size, byte_counts, backend=backend,
            )
            for l1 in range(0, 8 * 14, 8)
        ]
        return np.concatenate(rows).tobytes()

    return {
        "bloom_add": bloom_add_case,
        "bloom_contains": bloom_contains_case,
        "bloom_contains_hashed": bloom_contains_hashed_case,
        "bitvector_get_rank1": bitvector_case,
        "trie_levels": trie_case,
        "cpfpr_row": cpfpr_row_case,
        "cpfpr_byte_row": cpfpr_byte_row_case,
    }


def run_kernel_bench(
    scale: float = 1.0, seed: int = 7, repeats: int = 5, rounds: int = 1
) -> dict:
    """Time every kernel on every available backend; assert parity first.

    Raises ``AssertionError`` on any backend/numpy output mismatch.

    ``rounds`` reruns the whole suite that many times (fresh inputs each
    round) and reports the **minimum** speedup per (kernel, backend)
    across rounds.  Millisecond-scale ratios move run to run with cache
    and scheduler state even when each round's median is clean, so a
    single round is a lottery ticket; the committed reference report is
    produced with several rounds, making ``--check-against`` compare
    against a conservative floor instead of one lucky draw.  Reported
    timings are each backend's median across rounds.
    """
    backends = kernels.available_backends()
    per_round_timings: dict[str, dict[str, list[float]]] = {}
    parity_all: dict[str, dict[str, bool]] = {}
    for _ in range(max(1, rounds)):
        cases = _make_cases(scale, seed)
        for kernel_name, case in cases.items():
            reference = case("numpy")
            slot = per_round_timings.setdefault(
                kernel_name, {b: [] for b in backends}
            )
            for backend in backends:
                ok = case(backend) == reference
                parity_all.setdefault(kernel_name, {})[backend] = ok
                if not ok:
                    raise AssertionError(
                        f"parity mismatch: kernel {kernel_name!r} on backend "
                        f"{backend!r} diverged from the numpy reference"
                    )
                slot[backend].append(
                    _median_time(lambda b=backend: case(b), repeats)
                )
    report: dict = {
        "workload": {
            "scale": scale, "seed": seed, "repeats": repeats, "rounds": rounds,
        },
        "backends": list(backends),
        "benchmarks": {},
        "speedups": {},
        "parity": parity_all,
    }
    for kernel_name, slot in per_round_timings.items():
        report["benchmarks"][kernel_name] = {
            f"{b}_seconds": statistics.median(ts) for b, ts in slot.items()
        }
        report["speedups"][kernel_name] = {
            b: min(
                n / t for n, t in zip(slot["numpy"], ts) if t > 0
            )
            for b, ts in slot.items()
            if b != "numpy" and any(t > 0 for t in ts)
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.kernel_bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size multiplier (CI smoke uses a small fraction)",
    )
    parser.add_argument("--seed", type=int, default=7, help="input seed")
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per kernel; the median is reported",
    )
    parser.add_argument(
        "--rounds", type=int, default=1,
        help="full-suite reruns; speedups report the per-round minimum "
        "(use >1 when producing the committed reference report)",
    )
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--check-against", default=None,
        help="fail on speedup regressions vs this committed report",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional speedup regression for --check-against",
    )
    args = parser.parse_args(argv)
    report = run_kernel_bench(
        scale=args.scale, seed=args.seed, repeats=args.repeats, rounds=args.rounds
    )
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    print(rendered)
    if args.check_against:
        with open(args.check_against) as handle:
            committed = json.load(handle)
        failures = check_regressions(
            report["speedups"], committed.get("speedups", {}), args.tolerance, "."
        )
        if failures:
            print(
                f"FAIL: kernel speedups regressed past {args.tolerance:.0%}: "
                + ", ".join(
                    f"{name} {cur:.2f}x < {req:.2f}x"
                    for name, (cur, req) in sorted(failures.items())
                ),
                file=sys.stderr,
            )
            return 1
        print(f"OK: no kernel speedup regressed past {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
