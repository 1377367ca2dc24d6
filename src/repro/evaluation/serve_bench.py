"""Serving benchmark: sustained QPS and tail latency per family and shard count.

The microbenchmarks (``lsm_bench``, ``kernel_bench``) time components;
this driver times the *service*: for each filter family and each shard
count it builds a :class:`~repro.serve.service.ShardedLookupService`
over one seeded workload and measures

* **sustained throughput** — a saturating pump of ``batch_size``-query
  batches through :meth:`serve_batch`, reported as QPS (every answer is
  cross-checked against a reference computed directly on the sorted key
  set — a speedup may never be bought with a wrong answer);
* **tail latency** — ``concurrency`` closed-loop async producers issuing
  awaited single lookups through the
  :class:`~repro.serve.batcher.MicroBatcher`, reported as p50/p95/p99
  milliseconds per request (coalescing included: this is the latency a
  caller actually sees, queue wait and all).

Scaling is reported as each shard count's QPS over the 1-shard QPS of
the *same family*.  Absolute QPS is machine-bound, so the committed
reference (BENCH_pr10.json) gates only these **relative** ratios via
``--check-against``/``--tolerance``, one-sidedly — a runner faster than
the reference box can only pass harder.  ``--check`` additionally gates
answer exactness and the scaling floor; the floor is hardware-aware
(``--min-speedup`` overrides): 2x at the top shard count on boxes with
4+ usable cores, degrading gracefully where the parallelism physically
cannot exist (workers on a single core time-slice and pay IPC on top).

The whole path threads one :mod:`repro.obs` registry: the batcher's
batch-size and queue-wait histograms, the router's per-shard dispatch
counters, and the fleet's cost-model totals all land in the
``--metrics-out`` payload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from time import perf_counter

import numpy as np

from repro.api import FilterSpec, Workload
from repro.evaluation.gates import check_regressions
from repro.obs.metrics import MetricsRegistry, validate_metrics_payload
from repro.serve import MicroBatcher, ShardedLookupService
from repro.serve.service import WORKER_CONTEXT
from repro.workloads.batch import decode_ints, int_key_bytes

__all__ = ["run_serve_bench", "check_serve_report", "main"]

#: Default filter families benchmarked (``none`` = unfiltered baseline).
DEFAULT_FAMILIES = ("none", "bloom", "proteus")

#: Default shard counts; the last one is the scaling gate's numerator.
DEFAULT_SHARD_COUNTS = (1, 2, 4)


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux fallback


def default_min_speedup(usable_cpus: int, top_shards: int) -> float:
    """The hardware-aware scaling floor for ``--check``.

    With 4+ usable cores and 4+ shards the acceptance bar is a genuine
    2x; with 2-3 cores partial parallelism must still show up; on a
    single core the workers time-slice and pay per-batch IPC the 1-shard
    config doesn't (measured ~0.2-0.7x there, noisily), so the gate only
    catches an outright collapse.
    """
    parallelism = min(usable_cpus, top_shards)
    if parallelism >= 4:
        return 2.0
    if parallelism >= 2:
        return 1.2
    return 0.15


def _make_eval_queries(
    keys: np.ndarray, num_queries: int, width: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """A seeded serving mix: key-hitting points, random points, short ranges.

    ``keys`` are the user's keys (``uint64`` at width 64; above 64 bits,
    the byte strings the key set stores), and the bounds come out in the
    same dtype.  Above 64 bits the bounds are drawn as integers and
    coerced to bytes as the keys are.
    """
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    third = num_queries // 3
    hit_points = rng.choice(keys, size=third)
    if keys.dtype.kind == "S":

        def draw(high: int, size: int) -> list[int]:
            # Uniform in [0, high), up to a bias below 2**-64.
            return [int.from_bytes(rng.bytes(width // 8 + 8), "big") % high for _ in range(size)]

        def as_keys(values: list[int]) -> np.ndarray:
            return np.array(int_key_bytes(values, width), dtype=keys.dtype)

        starts = draw(top - 1024, num_queries - 2 * third)
        steps = rng.integers(1, 1024, size=len(starts)).tolist()
        random_points = as_keys(draw(top, third))
        range_los = as_keys(starts)
        range_his = as_keys([start + step for start, step in zip(starts, steps)])
    else:
        random_points = rng.integers(0, top, size=third, dtype=keys.dtype)
        range_los = rng.integers(0, top - 1024, size=num_queries - 2 * third, dtype=keys.dtype)
        range_his = range_los + rng.integers(1, 1024, size=range_los.size, dtype=keys.dtype)
    los = np.concatenate([hit_points, random_points, range_los])
    his = np.concatenate([hit_points, random_points, range_his])
    order = rng.permutation(num_queries)
    return los[order], his[order]


def _reference_answers(
    keys: np.ndarray, los: np.ndarray, his: np.ndarray
) -> np.ndarray:
    """Exact truth straight off the sorted key array (filter-independent)."""
    idx = np.searchsorted(keys, los, side="left")
    safe = np.minimum(idx, keys.size - 1)
    return (idx < keys.size) & (keys[safe] <= his)


def _percentiles_ms(latencies: list[float]) -> dict:
    """p50/p95/p99/mean of per-request latencies, in milliseconds."""
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(arr.mean()),
    }


async def _latency_pass(
    service: ShardedLookupService,
    los: np.ndarray,
    his: np.ndarray,
    concurrency: int,
    max_batch: int,
    metrics: MetricsRegistry | None,
) -> tuple[list[float], np.ndarray]:
    """Closed-loop producers through the micro-batcher; per-request timings."""
    batcher = MicroBatcher(
        service.answer_batch,
        max_batch=max_batch,
        metrics=metrics,
    )
    latencies: list[float] = []
    answers = np.zeros(los.size, dtype=bool)

    async def producer(offset: int) -> None:
        for index in range(offset, los.size, concurrency):
            start = perf_counter()
            # .item(): the user's int, or a byte key's bytes.
            answers[index] = await batcher.lookup(los[index].item(), his[index].item())
            latencies.append(perf_counter() - start)

    async with batcher:
        await asyncio.gather(*[producer(i) for i in range(concurrency)])
    return latencies, answers


def run_serve_bench(
    families=DEFAULT_FAMILIES,
    shard_counts=DEFAULT_SHARD_COUNTS,
    num_keys: int = 16_384,
    num_queries: int = 4_096,
    width: int = 32,
    seed: int = 42,
    bits_per_key: float = 14.0,
    policy: str = "proportional",
    sst_keys: int = 512,
    fanout: int = 4,
    batch_size: int = 512,
    latency_requests: int = 256,
    concurrency: int = 16,
    max_batch: int = 64,
    mode: str = "process",
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Measure every (family, shard count) serving config; return the report.

    One seeded workload (keys + design sample) and one seeded evaluation
    query mix are shared by every config, so QPS differences are the
    serving topology's, not the data's.  ``mode="inline"`` runs the same
    route/dispatch path without worker processes — the single-core
    baseline and the deterministic path the tests use.
    """
    workload = Workload.generate(
        num_keys=num_keys, num_queries=num_queries, width=width, seed=seed
    )
    key_array = decode_ints(workload.keys.keys, width)
    los, his = _make_eval_queries(key_array, num_queries, width, seed + 1)
    reference = _reference_answers(key_array, los, his)
    latency_count = min(latency_requests, num_queries)

    configs: dict[str, dict] = {}
    scaling: dict[str, dict] = {}
    for family in families:
        spec = None if family == "none" else FilterSpec(family, bits_per_key)
        configs[family] = {}
        scaling[family] = {}
        for shards in shard_counts:
            service = ShardedLookupService.build(
                workload.keys,
                num_shards=shards,
                spec=spec,
                workload=workload,
                policy=policy,
                sst_keys=sst_keys,
                fanout=fanout,
                seed=seed,
                mode=mode,
                metrics=metrics,
            )
            try:
                # Warmup: the first dispatch pays page faults and first-use loads.
                service.serve_batch(los[:batch_size], his[:batch_size])
                answers = np.zeros(num_queries, dtype=bool)
                totals = {
                    "blocks_read": 0,
                    "false_positive_reads": 0,
                    "filter_probes": 0,
                    "routed_none": 0,
                }
                start = perf_counter()
                for chunk in range(0, num_queries, batch_size):
                    part, stats = service.serve_batch(
                        los[chunk : chunk + batch_size],
                        his[chunk : chunk + batch_size],
                    )
                    answers[chunk : chunk + part.size] = part
                    for key in totals:
                        totals[key] += stats[key]
                elapsed = perf_counter() - start
                latencies, latency_answers = asyncio.run(
                    _latency_pass(
                        service,
                        los[:latency_count],
                        his[:latency_count],
                        concurrency,
                        max_batch,
                        metrics,
                    )
                )
                mismatches = int((answers != reference).sum())
                mismatches += int(
                    (latency_answers != reference[:latency_count]).sum()
                )
                configs[family][str(shards)] = {
                    "qps": num_queries / elapsed,
                    "elapsed_seconds": elapsed,
                    "latency_ms": _percentiles_ms(latencies),
                    "answer_mismatches": mismatches,
                    "positives": int(answers.sum()),
                    "filter_bits": int(service.filter_bits),
                    **totals,
                }
            finally:
                service.close()
        baseline = configs[family].get(str(shard_counts[0]), {}).get("qps")
        for shards in shard_counts:
            scaling[family][str(shards)] = (
                configs[family][str(shards)]["qps"] / baseline
                if baseline
                else 0.0
            )
    return {
        "mode": "serve",
        "workload": {
            "num_keys": num_keys,
            "num_queries": num_queries,
            "width": width,
            "seed": seed,
            "bits_per_key": float(bits_per_key),
            "budget_policy": policy,
            "geometry": {"sst_keys": sst_keys, "fanout": fanout},
        },
        "serving": {
            "mode": mode,
            "batch_size": batch_size,
            "latency_requests": latency_count,
            "concurrency": concurrency,
            "max_batch": max_batch,
            "shard_counts": list(shard_counts),
        },
        "hardware": {
            "cpu_count": os.cpu_count(),
            "usable_cpus": _usable_cpus(),
            "start_method": (
                WORKER_CONTEXT.get_start_method() if mode == "process" else "inline"
            ),
        },
        "configs": configs,
        "scaling": scaling,
    }


def check_serve_report(report: dict, min_speedup: float | None = None) -> list[str]:
    """Return violations of the serving gate (empty = pass).

    * zero answer mismatches in every config — throughput and latency
      passes both, exactness is non-negotiable;
    * p99 latency present (and finite) per family and shard count;
    * the top shard count's QPS over the 1-shard QPS must reach the
      scaling floor for every family — ``min_speedup`` if given, else
      the hardware-aware :func:`default_min_speedup`.
    """
    violations: list[str] = []
    shard_counts = report["serving"]["shard_counts"]
    top = str(shard_counts[-1])
    if min_speedup is None:
        min_speedup = default_min_speedup(
            report["hardware"]["usable_cpus"], shard_counts[-1]
        )
    for family, per_shards in report["configs"].items():
        for shards, config in per_shards.items():
            if config["answer_mismatches"]:
                violations.append(
                    f"{family}@{shards}: {config['answer_mismatches']} "
                    f"answer mismatches against the reference truth"
                )
            p99 = config.get("latency_ms", {}).get("p99")
            if p99 is None or not np.isfinite(p99):
                violations.append(f"{family}@{shards}: missing/non-finite p99")
        if len(shard_counts) > 1:
            speedup = report["scaling"][family].get(top, 0.0)
            if speedup < min_speedup:
                violations.append(
                    f"{family}: {top}-shard speedup {speedup:.2f}x below "
                    f"the {min_speedup:.2f}x floor"
                )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.serve_bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--families", default=",".join(DEFAULT_FAMILIES),
        help="comma-separated filter families ('none' = unfiltered)",
    )
    parser.add_argument(
        "--shard-counts", default=",".join(map(str, DEFAULT_SHARD_COUNTS)),
        help="comma-separated shard counts (first is the scaling baseline)",
    )
    parser.add_argument("--num-keys", type=int, default=16_384)
    parser.add_argument("--num-queries", type=int, default=4_096)
    parser.add_argument("--width", type=int, default=32)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--bits-per-key", type=float, default=14.0)
    parser.add_argument("--policy", default="proportional")
    parser.add_argument("--sst-keys", type=int, default=512)
    parser.add_argument("--fanout", type=int, default=4)
    parser.add_argument(
        "--batch-size", type=int, default=512,
        help="queries per serve_batch call in the throughput pump",
    )
    parser.add_argument(
        "--latency-requests", type=int, default=256,
        help="awaited single lookups per config for the latency pass",
    )
    parser.add_argument(
        "--concurrency", type=int, default=16,
        help="closed-loop async producers in the latency pass",
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--inline", action="store_true",
        help="serve in-process (no worker processes; deterministic baseline)",
    )
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--metrics-out", default=None,
        help="write the obs-registry export (JSON + Prometheus text) here",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate exactness, p99 presence, and the scaling floor",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="override the hardware-aware scaling floor for --check",
    )
    parser.add_argument(
        "--check-against", default=None,
        help="fail on scaling-ratio regressions vs this committed report",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional scaling regression for --check-against",
    )
    args = parser.parse_args(argv)
    metrics = MetricsRegistry()
    report = run_serve_bench(
        families=tuple(f for f in args.families.split(",") if f),
        shard_counts=tuple(int(s) for s in args.shard_counts.split(",") if s),
        num_keys=args.num_keys,
        num_queries=args.num_queries,
        width=args.width,
        seed=args.seed,
        bits_per_key=args.bits_per_key,
        policy=args.policy,
        sst_keys=args.sst_keys,
        fanout=args.fanout,
        batch_size=args.batch_size,
        latency_requests=args.latency_requests,
        concurrency=args.concurrency,
        max_batch=args.max_batch,
        mode="inline" if args.inline else "process",
        metrics=metrics,
    )
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    print(rendered)
    if args.metrics_out:
        payload = {
            "driver": "serve_bench",
            "metrics": metrics.to_dict(),
            "prometheus": metrics.to_prometheus(),
        }
        problems = validate_metrics_payload(payload["metrics"])
        if problems:
            print("FAIL: metrics export invalid: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.check:
        violations = check_serve_report(report, args.min_speedup)
        if violations:
            print("FAIL: " + "; ".join(violations), file=sys.stderr)
            return 1
        print("OK: serving gate passed")
    if args.check_against:
        with open(args.check_against) as handle:
            committed = json.load(handle)
        # Only the relative scaling ratios gate: absolute QPS is not
        # comparable across machines.
        failures = check_regressions(
            report["scaling"], committed.get("scaling", {}), args.tolerance, "@"
        )
        if failures:
            print(
                f"FAIL: serving scaling regressed past {args.tolerance:.0%}: "
                + ", ".join(
                    f"{name} {cur:.2f}x < {req:.2f}x"
                    for name, (cur, req) in sorted(failures.items())
                ),
                file=sys.stderr,
            )
            return 1
        print(f"OK: no scaling ratio regressed past {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
