"""One workload run, in its own process: warm, set up, measure, check.

``perfbench/run.py`` starts this module as
``python -m perfbench.workload --workload W --seed N --seconds S --trace T
--result PATH`` and supervises it; it is not meant to be started by hand.
The run writes one JSON document to ``PATH``: failures against operations
attempted, every metric it measured, the digest of its inputs and the
stamp of the host and kernel backend that served it.

Untraced runs measure the end-to-end metrics.  Traced runs split the same
work into an untraced half and a traced half, report the per-layer metrics
from the traced half's spans and counters, and report the difference
between the halves as the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import platform
import resource
import signal
import sys
import threading
from array import array
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

from perfbench import traffic
from perfbench.tracer import Tracer

#: The kernel backend every run must be served by.
EXPECTED_BACKEND = "cc"
#: Least set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Nominal seconds of one static round and one churn repetition: ``--seconds``
#: divided by these fixes how much work a run does.
ROUND_S = 6.0
REP_S = 8.0
#: Closed-loop callers on the static workloads.
CALLERS = 16

#: ``setups``: set-ups per untraced run, each followed by its share of the
#: closed loop (more where a set-up is cheap: the bulk load is timed on them).
STATIC = {
    "sparse_reads": {"num_shards": 2, "mode": "process", "bits_per_key": 14.0, "setups": 3},
    "ycsb_scans": {"num_shards": 1, "mode": "inline", "bits_per_key": 14.0, "setups": 5},
}

CHURN_BITS_PER_KEY = 12.0
CHURN_GEOMETRY = {"sst_keys": 512, "fanout": 4, "level0_runs": 4, "memtable_capacity": 512}

NULL = nullcontext()

#: Per-layer metrics of layers a workload never calls; reported as 0.
SERVICE_LAYERS = (
    "batcher.queue_wait_ms", "batcher.fanback_ms", "batcher.batch_size",
    "service.serve_batch_ms", "service.route_ms", "service.shards_per_lookup",
    "service.reply_wait_ms", "setup.snapshot_s", "setup.spawn_s",
)
#: Per-layer times of work a process-mode service does inside its workers.
WORKER_SIDE_LAYERS = (
    "tree.probe_ms", "tree.self_ms", "filter.probe_ms_per_lookup", "block.read_ms_per_lookup",
    "kernels.bloom_contains_per_lookup", "kernels.bitvector_get_rank1_per_lookup",
)
WRITE_LAYERS = (
    "memtable.put_us", "flush.ms", "compaction.merge_ms", "compaction.entries_per_write",
    "online.lookup_many_ms", "lifecycle.observe_ms", "lifecycle.filters_rebuilt",
    "lifecycle.drift_flags",
)


def ms(seconds: float) -> float:
    return 1e3 * seconds


def peak_rss_mb() -> float:
    """High-water resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per(amount: float, count: int) -> float:
    return amount / count if count else 0.0


def stamp(backend: str) -> dict:
    """Host, interpreter and backend that served the run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend,
    }


@dataclass
class Outcome:
    """Operations attempted and failed, plus how each failure arose."""

    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    missed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.missed

    def absorb(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.errors += other.errors
        self.missed += other.missed
        self.notes.extend(other.notes)


# --------------------------------------------------------------------- #
# Static stores behind the sharded service                              #
# --------------------------------------------------------------------- #


@dataclass
class SetUp:
    seconds: float  # inputs in memory -> ready to serve
    bulk_seconds: float  # tree build + filter design (the bulk load)
    entries: int  # entries written into the trees


def set_up_static(inputs: traffic.StaticInputs, config: dict):
    """Build the filtered shard trees and start the service on them."""
    from repro.api import FilterSpec, Workload
    from repro.serve import ShardedLookupService, build_shard_trees, split_key_set
    from repro.workloads.batch import coerce_keys, coerce_query_batch

    start = perf_counter()
    keys = coerce_keys(inputs.store_keys, inputs.width)
    workload = Workload(keys, coerce_query_batch(inputs.design_pairs, keys.width))
    shards = split_key_set(keys, config["num_shards"])
    trees = build_shard_trees(
        shards, spec=FilterSpec("proteus", config["bits_per_key"]), workload=workload
    )
    built = perf_counter()
    service = ShardedLookupService(trees, shards, mode=config["mode"])
    ready = perf_counter()
    entries = sum(tree.num_keys for tree in trees)
    return service, SetUp(ready - start, built - start, entries)


STAT_KEYS = ("blocks_read", "required_reads", "false_positive_reads", "filter_probes")


@dataclass
class Loop:
    """Closed-loop traffic served so far: timings, answers checked, counts."""

    cursor: int = 0
    part: int = 0
    backend_calls: int = 0
    #: Per answered request: index, part, start_ns and end_ns (compact, so
    #: the benchmark's own memory barely moves ``peak_rss_mb``).
    samples: tuple[array, ...] = field(default_factory=lambda: tuple(array("q") for _ in range(4)))
    outcome: Outcome = field(default_factory=Outcome)
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys((*STAT_KEYS, "shard_queries"), 0)
    )
    #: Traced phases only: the backend call that served each request.
    batch_of: dict[str, str] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return len(self.samples[0])

    def record(self, *sample: int) -> None:
        for column, value in zip(self.samples, sample):
            column.append(value)

    def rounds(self, size: int) -> tuple[np.ndarray, list[float]]:
        """Latency of every request as ``[round, slot]``, and each round's rate.

        A round's rate is its requests over the time spent serving them:
        from its first request to its last answer, less any set-up between.
        """
        index, part, start, end = (np.frombuffer(column, dtype=np.int64) for column in self.samples)
        rounds = int(index.max()) // size + 1
        latencies = np.full(rounds * size, np.nan)
        latencies[index] = (end - start) / 1e9
        rates = []
        for number in range(rounds):
            chosen = index // size == number
            if chosen.sum() < size:
                continue
            busy_ns = 0
            for piece in np.unique(part[chosen]):
                served = chosen & (part == piece)
                busy_ns += end[served].max() - start[served].min()
            rates.append(size / (busy_ns / 1e9))
        return latencies.reshape(rounds, size), rates


async def closed_loop(service, inputs, loop: Loop, stop: int,
                      tracer: Tracer | None = None) -> None:
    """``CALLERS`` callers await single lookups through the micro-batcher.

    Requests cycle through the seeded round, from ``loop.cursor`` up to
    request ``stop``; a run's last part stops at a round boundary, so
    every count per lookup repeats exactly.
    """
    from repro.serve import MicroBatcher

    lock = threading.Lock()
    submitted: deque[str] = deque()
    batch_ids = itertools.count(loop.backend_calls)
    los, his, expected = inputs.request_los, inputs.request_his, inputs.expected
    size = len(los)

    def backend(batch_los, batch_his):
        if tracer is None:
            answers, stats = service.serve_batch(batch_los, batch_his)
        else:
            # The batcher flushes everything pending, oldest first, so this
            # batch holds the oldest len(batch_los) submitted requests.
            batch_id = f"b{next(batch_ids)}"
            for _ in batch_los:
                loop.batch_of[submitted.popleft()] = batch_id
            with tracer.span("batcher.backend", batch_id):
                answers, stats = service.serve_batch(batch_los, batch_his)
        # A filter false negative: a required read that was not read.
        missed = stats["required_reads"] - (
            stats["blocks_read"] - stats["false_positive_reads"]
        )
        with lock:
            loop.backend_calls += 1
            for key in STAT_KEYS:
                loop.counts[key] += stats[key]
            loop.counts["shard_queries"] += sum(stats["shard_queries"])
            if missed:
                loop.outcome.missed += len(batch_los)
                loop.outcome.notes.append(f"{missed} missed reads in one batch")
        return answers

    batcher = MicroBatcher(backend)

    async def caller() -> None:
        while loop.cursor < stop:
            index = loop.cursor
            loop.cursor += 1
            slot = index % size
            if tracer is not None:
                submitted.append(f"r{index}")
            loop.outcome.attempted += 1
            start = perf_counter_ns()
            try:
                answer = await batcher.lookup(los[slot], his[slot])
            except Exception as exc:  # ServeError or any failure below it
                loop.outcome.errors += 1
                loop.outcome.notes.append(repr(exc))
                return
            loop.record(index, loop.part, start, perf_counter_ns())
            if answer != expected[slot]:
                loop.outcome.wrong += 1

    async with batcher:
        await asyncio.gather(*(caller() for _ in range(CALLERS)))
    loop.part += 1


def warm_up_static(name: str, seed: int, config: dict, scale: int) -> Outcome:
    """Serve and check one batch on a small store before any timer starts."""
    small = traffic.WORKLOADS[name](seed, scale)
    service, _ = set_up_static(small, config)
    try:
        answers, _ = service.serve_batch(small.request_los, small.request_his)
    finally:
        service.close()
    wrong = int((np.asarray(answers, dtype=bool) != small.expected).sum())
    return Outcome(attempted=len(small.expected), wrong=wrong)


def lookup_metrics(latencies: np.ndarray, rates: list[float]) -> dict[str, float]:
    """Latency percentiles and rate from repeated rounds of identical requests.

    Each request's latency is the lowest it took over the rounds (the same
    request in the same batch position each round); host interference
    only ever adds time, so this keeps the program's cost and drops the
    host's bursts.  For the same reason the rate is the upper quartile of
    the rounds' rates.
    """
    best = np.nanmin(latencies, axis=0)
    return {
        "lookup_p50_ms": ms(float(np.nanpercentile(best, 50))),
        "lookup_p99_ms": ms(float(np.nanpercentile(best, 99))),
        "lookup_qps": float(np.percentile(rates, 75)),
    }


def static_end_to_end(setups: list[SetUp], loop: Loop, inputs, service_bits: int) -> dict:
    keys = len(inputs.keys)
    bulk = min(setup.bulk_seconds for setup in setups)
    return {
        "setup_s": float(np.median([setup.seconds for setup in setups])),
        **lookup_metrics(*loop.rounds(len(inputs.expected))),
        # A static store's only write is its bulk load: one write of every key.
        "write_ops_per_s": keys / bulk,
        "write_p999_ms": ms(bulk),
        "fp_reads_per_lookup": loop.counts["false_positive_reads"] / loop.requests,
        "filter_bits_per_key": service_bits / keys,
        "write_amp": setups[-1].entries / keys,
        "peak_rss_mb": peak_rss_mb(),
    }


def static_per_layer(config: dict, setup_trace: Tracer, loop_trace: Tracer, loop: Loop,
                     kernel_counts: dict[str, float]) -> dict:
    setup = setup_trace.summary()
    spans = loop_trace.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    lookups = loop.requests
    counts = loop.counts
    batch_spans = {
        span.request_id: span for span in loop_trace.spans if span.name == "batcher.backend"
    }
    waits, fanbacks = [], []
    for index, _, start, end in zip(*loop.samples):
        batch = batch_spans[loop.batch_of[f"r{index}"]]
        waits.append(batch.start_ns - start)
        fanbacks.append(end - batch.end_ns)
    serve = spans.get("service.serve_batch", empty)
    route = spans.get("service.route", empty)
    probe = spans.get("tree.probe", empty)
    builds = setup.get("design.build_filter", empty)
    in_process = config["mode"] == "process"
    return {
        "batcher.queue_wait_ms": ms(float(np.mean(waits)) / 1e9),
        "batcher.fanback_ms": ms(float(np.mean(fanbacks)) / 1e9),
        "batcher.batch_size": per(lookups, loop.backend_calls),
        "service.serve_batch_ms": ms(per(serve["total_s"], serve["calls"])),
        "service.route_ms": ms(per(route["total_s"], route["calls"])),
        "service.shards_per_lookup": per(counts["shard_queries"], lookups),
        # In process mode serve_batch's own time is the wait on its workers.
        "service.reply_wait_ms": ms(per(serve["self_s"], serve["calls"])) if in_process else 0.0,
        "setup.snapshot_s": setup.get("setup.snapshot", empty)["total_s"],
        "setup.spawn_s": setup.get("service.start", empty)["self_s"],
        "setup.design_s": builds["total_s"],
        "design.build_ms": ms(per(builds["total_s"], builds["calls"])),
        "design.filters_built": builds["calls"],
        "tree.probe_ms": ms(per(probe["total_s"], probe["calls"])),
        "tree.self_ms": ms(per(probe["self_s"], probe["calls"])),
        # Every SST carries a filter, so each fence survivor is one filter probe.
        "tree.candidates_per_lookup": per(counts["filter_probes"], lookups),
        "filter.probe_ms_per_lookup": ms(
            per(spans.get("filter.probe_many", empty)["total_s"], lookups)
        ),
        "filter.probes_per_lookup": per(counts["filter_probes"], lookups),
        "filter.observed_fpr": per(
            counts["false_positive_reads"], counts["filter_probes"] - counts["required_reads"]
        ),
        "kernels.bloom_contains_per_lookup": per(kernel_counts["bloom_contains"], lookups),
        "kernels.bitvector_get_rank1_per_lookup": per(
            kernel_counts["bitvector_get_rank1"], lookups
        ),
        "block.read_ms_per_lookup": ms(
            per(spans.get("block.matches_many", empty)["total_s"], lookups)
        ),
        "block.reads_per_lookup": per(counts["blocks_read"], lookups),
        "block.required_reads_per_lookup": per(counts["required_reads"], lookups),
        **dict.fromkeys(WRITE_LAYERS, 0.0),
    }


def run_static(name: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    """Set-ups interleaved with closed-loop parts, so both sample the whole run.

    ``seconds`` fixes the work, not a deadline: ``seconds / ROUND_S``
    rounds, at least 2, so every run takes the per-request minimum over
    the same number of rounds however fast the host is.  An untraced run
    makes ``config["setups"]`` set-ups, each followed by an equal share of
    the rounds on the service it started.  A traced run serves half the
    rounds after an untraced set-up, then half after a traced one.
    """
    config = STATIC[name]
    inputs = traffic.WORKLOADS[name](seed, scale)
    outcome = warm_up_static(name, seed, config, 16 * scale)
    setup_trace, loop_trace = Tracer(), Tracer()
    size = len(inputs.expected)
    rounds = max(2, round(seconds / ROUND_S))
    if trace:
        untraced, traced = Loop(), Loop()
        half = rounds // 2 * size
        plan = [(None, untraced, None, half), (setup_trace, traced, loop_trace, half)]
    else:
        untraced = traced = Loop()
        parts = config["setups"]
        plan = [
            (None, untraced, None, rounds * size * (part + 1) // parts) for part in range(parts)
        ]
    setups: list[SetUp] = []
    registry = None
    service = None
    try:
        for setup_tracer, loop, loop_tracer, stop in plan:
            if service is not None:
                service.close()
                service = None
            with installed(setup_tracer):
                service, setup = set_up_static(inputs, config)
            setups.append(setup)
            counting = nullcontext() if loop_tracer is None else kernel_counters()
            with counting as counted, installed(loop_tracer):
                asyncio.run(closed_loop(service, inputs, loop, stop, loop_tracer))
            if loop_tracer is not None:
                registry = counted
        filter_bits = service.filter_bits
    finally:
        if service is not None:
            service.close()
    for loop in [untraced] if traced is untraced else [untraced, traced]:
        outcome.absorb(loop.outcome)
    end_to_end = static_end_to_end(setups, untraced, inputs, filter_bits)
    result = {
        "end_to_end": end_to_end,
        "details": {
            "requests": untraced.requests,
            "backend_calls": untraced.backend_calls,
            "round_requests": len(inputs.expected),
            "found_share": float(np.mean(inputs.expected)),
            "setups_s": [setup.seconds for setup in setups],
            "bulk_loads_s": [setup.bulk_seconds for setup in setups],
            "counts": untraced.counts,
        },
    }
    if trace:
        layers = static_per_layer(
            config, setup_trace, loop_trace, traced, kernel_counts(registry, outcome)
        )
        traced_lookups = lookup_metrics(*traced.rounds(len(inputs.expected)))
        layers["tracing.overhead_pct"] = 100.0 * (
            end_to_end["lookup_qps"] / traced_lookups["lookup_qps"] - 1.0
        )
        result["per_layer"] = layers
        if config["mode"] == "process":
            result["details"]["not_measured"] = dict.fromkeys(
                WORKER_SIDE_LAYERS, "runs in the worker processes, out of the parent's reach"
            )
        result["details"]["tracing_overhead_pct"] = overheads(
            {
                "setup_s": (setups[0].seconds, setups[1].seconds),
                "lookup_p50_ms": (end_to_end["lookup_p50_ms"], traced_lookups["lookup_p50_ms"]),
                "lookup_qps": (traced_lookups["lookup_qps"], end_to_end["lookup_qps"]),
            }
        )
        result["spans"] = {"setup": setup_trace, "loop": loop_trace}
    result["outcome"] = outcome
    result["digest"] = inputs.digest()
    return result


# --------------------------------------------------------------------- #
# Kernel dispatch counters and overheads                                #
# --------------------------------------------------------------------- #


@contextmanager
def kernel_counters():
    """Count kernel dispatches (``repro.kernels.attach_metrics``) in the body."""
    from repro import kernels
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    kernels.attach_metrics(registry)
    try:
        yield registry
    finally:
        kernels.attach_metrics(None)


#: Kernels the numpy reference serves on every backend (see repro.kernels).
REFERENCE_ONLY_KERNELS = ("bloom_positions", "merge_runs")


def kernel_counts(registry, outcome: Outcome) -> dict[str, float]:
    """Dispatches per kernel; a dispatch served by another backend fails the run."""
    totals = {"bloom_contains": 0.0, "bitvector_get_rank1": 0.0}
    for name, value in registry.to_dict()["counters"].items():
        _, _, backend, kernel = name.split(".", 3)
        if backend != EXPECTED_BACKEND and kernel not in REFERENCE_ONLY_KERNELS:
            outcome.errors += 1
            outcome.notes.append(f"kernel {kernel} served by backend {backend}")
        if kernel in totals:
            totals[kernel] += value
    return totals


@contextmanager
def installed(tracer: Tracer | None):
    """Wrap the program's calls for the ``with`` body (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def overheads(pairs: dict[str, tuple[float, float]]) -> dict[str, float]:
    """Percent by which the traced value exceeds the untraced one."""
    return {
        name: 100.0 * (float(traced) / float(untraced) - 1.0)
        for name, (untraced, traced) in pairs.items()
    }


# --------------------------------------------------------------------- #
# write_churn: the online tree with its filter lifecycle                #
# --------------------------------------------------------------------- #


@dataclass
class Rep:
    """One churn repetition: preload, then the write stream with its reads."""

    setup_s: float = 0.0
    stream_wall_s: float = 0.0
    write_latencies: np.ndarray | None = None
    lookup_latencies: list[float] = field(default_factory=list)
    probe_latencies: list[float] = field(default_factory=list)
    point_lookups: int = 0
    range_lookups: int = 0
    flushed_entries: int = 0
    outcome: Outcome = field(default_factory=Outcome)
    counts: dict[str, int] = field(default_factory=dict)
    filter_bits: int = 0


def preload(inputs: traffic.ChurnInputs):
    """The set-up: an empty online tree ingests the preload keys."""
    from repro.api import FilterSpec
    from repro.lsm import FilterLifecycle, OnlineLSMTree
    from repro.workloads.batch import QueryBatch

    width = traffic.CHURN_WIDTH
    tree = OnlineLSMTree(
        width,
        FilterSpec("proteus", CHURN_BITS_PER_KEY),
        QueryBatch(inputs.design_los, inputs.design_his, width),
        **CHURN_GEOMETRY,
    )
    for key in inputs.preload.tolist():
        tree.put(key)
    return tree, FilterLifecycle(tree)


def churn_rep(inputs: traffic.ChurnInputs, setup_trace: Tracer | None = None,
              stream_trace: Tracer | None = None) -> Rep:
    from repro.workloads.batch import QueryBatch

    rep = Rep()
    with installed(setup_trace):
        start = perf_counter()
        tree, lifecycle = preload(inputs)
        rep.setup_s = perf_counter() - start
    keys = inputs.keys.tolist()
    deletes = inputs.deletes.tolist()
    latencies = np.empty(len(keys))
    counts = dict.fromkeys(
        ("candidates", "filter_probes", "blocks_read", "required_reads",
         "false_positive_reads"), 0
    )
    stats_before = dict(tree.stats)
    outcome = rep.outcome
    span = stream_trace.span if stream_trace is not None else (lambda *_: NULL)
    stream_start = perf_counter()
    with installed(stream_trace):
        for index, key in enumerate(keys):
            before = len(tree.memtable)
            had = tree.memtable.get(key) is not None
            flushes = tree.stats["flushes"]
            outcome.attempted += 1
            with span("online.write", f"w{index}"):
                start = perf_counter()
                try:
                    if deletes[index]:
                        tree.delete(key)
                    else:
                        tree.put(key)
                except Exception as exc:
                    outcome.errors += 1
                    outcome.notes.append(repr(exc))
                latencies[index] = perf_counter() - start
            if tree.stats["flushes"] != flushes:
                rep.flushed_entries += before + (not had)
            lookup = inputs.lookups.get(index)
            if lookup is not None:
                probe_keys, expected = lookup
                outcome.attempted += len(probe_keys)
                with span("online.read", f"l{index}"):
                    start = perf_counter()
                    try:
                        found = tree.lookup_many(probe_keys)
                    except Exception as exc:
                        found = None
                        outcome.errors += len(probe_keys)
                        outcome.notes.append(repr(exc))
                    rep.lookup_latencies.append(perf_counter() - start)
                if found is not None:
                    outcome.wrong += int((np.asarray(found, dtype=bool) != expected).sum())
                rep.point_lookups += len(probe_keys)
            ranges = inputs.probes.get(index)
            if ranges is not None:
                outcome.attempted += len(ranges[0])
                with span("online.read", f"p{index}"):
                    start = perf_counter()
                    try:
                        batch = QueryBatch(ranges[0], ranges[1], traffic.CHURN_WIDTH)
                        per_sst: dict = {}
                        result = tree.probe(batch, sst_stats=per_sst)
                        lifecycle.observe_epoch(batch, per_sst)
                    except Exception as exc:
                        result = None
                        outcome.errors += len(ranges[0])
                        outcome.notes.append(repr(exc))
                    rep.probe_latencies.append(perf_counter() - start)
                if result is not None:
                    for key_name in counts:
                        counts[key_name] += int(getattr(result, key_name).sum())
                    outcome.missed += int((result.missed_reads > 0).sum())
                rep.range_lookups += len(ranges[0])
    rep.stream_wall_s = perf_counter() - stream_start
    rep.write_latencies = latencies
    counts["flushes"] = tree.stats["flushes"] - stats_before["flushes"]
    counts["compactions"] = tree.stats["compactions"] - stats_before["compactions"]
    counts["compaction_entries"] = (
        tree.stats["entries_written"] - stats_before["entries_written"]
    )
    counts["drift_flags"] = lifecycle.stats["drift_flags"]
    counts["filters_rebuilt"] = lifecycle.stats["filters_rebuilt"]
    counts["deep_levels"] = len(tree.deep_levels)
    rep.counts = counts
    rep.filter_bits = tree.filter_size_bits()
    return rep


def churn_end_to_end(reps: list[Rep], setups: list[float], inputs) -> dict:
    """Repetitions do identical work, so each operation's time is its mean.

    Every write and read call is timed once per repetition and keeps its
    mean latency; rates divide by the sum of those means.  (Unlike the
    static rounds, a repetition is one long stretch of the host's time,
    and the lowest of three such stretches varied more between runs than
    their mean.)  Latency percentiles are over the calls that answer
    lookups (``lookup_many``); range-probe calls feed the filter
    lifecycle and count in ``lookup_qps``.
    """
    last = reps[-1]
    writes, lookups, probes = (
        np.mean([getattr(rep, name) for rep in reps], axis=0)
        for name in ("write_latencies", "lookup_latencies", "probe_latencies")
    )
    return {
        "setup_s": float(np.median(setups)),
        "lookup_p50_ms": ms(float(np.percentile(lookups, 50))),
        "lookup_p99_ms": ms(float(np.percentile(lookups, 99))),
        "lookup_qps": (last.point_lookups + last.range_lookups)
        / float(writes.sum() + lookups.sum() + probes.sum()),
        "write_ops_per_s": writes.size / float(writes.sum()),
        "write_p999_ms": ms(float(np.percentile(writes, 99.9))),
        "fp_reads_per_lookup": last.counts["false_positive_reads"] / last.range_lookups,
        "filter_bits_per_key": last.filter_bits / inputs.live_at_end,
        "write_amp": (last.flushed_entries + last.counts["compaction_entries"])
        / len(inputs.keys),
        "peak_rss_mb": peak_rss_mb(),
    }


def churn_per_layer(rep: Rep, setup_trace: Tracer, stream_trace: Tracer,
                    kernel_totals: dict[str, float]) -> dict:
    setup = setup_trace.summary()
    spans = stream_trace.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def mean_ms(name: str) -> float:
        row = spans.get(name, empty)
        return ms(per(row["total_s"], row["calls"]))

    counts = rep.counts
    ranges = rep.range_lookups
    probe = spans.get("tree.probe", empty)
    builds = spans.get("design.build_filter", empty)
    return {
        "setup.design_s": setup.get("design.build_filter", empty)["total_s"],
        "design.build_ms": ms(per(builds["total_s"], builds["calls"])),
        "design.filters_built": builds["calls"],
        "tree.probe_ms": ms(per(probe["total_s"], probe["calls"])),
        "tree.self_ms": ms(per(probe["self_s"], probe["calls"])),
        "tree.candidates_per_lookup": per(counts["candidates"], ranges),
        "filter.probe_ms_per_lookup": ms(
            per(spans.get("filter.probe_many", empty)["total_s"], ranges)
        ),
        "filter.probes_per_lookup": per(counts["filter_probes"], ranges),
        "filter.observed_fpr": per(
            counts["false_positive_reads"], counts["candidates"] - counts["required_reads"]
        ),
        "kernels.bloom_contains_per_lookup": per(kernel_totals["bloom_contains"], ranges),
        "kernels.bitvector_get_rank1_per_lookup": per(
            kernel_totals["bitvector_get_rank1"], ranges
        ),
        "block.read_ms_per_lookup": ms(
            per(spans.get("block.matches_many", empty)["total_s"], ranges)
        ),
        "block.reads_per_lookup": per(counts["blocks_read"], ranges),
        "block.required_reads_per_lookup": per(counts["required_reads"], ranges),
        "memtable.put_us": 1e3 * mean_ms("memtable.write"),
        "flush.ms": mean_ms("online.flush"),
        "compaction.merge_ms": mean_ms("compaction.merge"),
        "compaction.entries_per_write": counts["compaction_entries"] / len(rep.write_latencies),
        "online.lookup_many_ms": mean_ms("online.lookup_many"),
        "lifecycle.observe_ms": mean_ms("lifecycle.observe_epoch"),
        "lifecycle.filters_rebuilt": counts["filters_rebuilt"],
        "lifecycle.drift_flags": counts["drift_flags"],
    }


def agree(rep: Rep, first: Rep, outcome: Outcome) -> None:
    """Identical work must give identical program counts, traced or not."""
    if rep.counts != first.counts:
        outcome.errors += 1
        outcome.notes.append("repetitions of one seed disagree on program counts")


def run_churn(seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    """Whole repetitions, each on a fresh tree, so every count repeats.

    ``seconds`` fixes the work: ``seconds / REP_S`` repetitions, at least
    ``SETUPS``, so every operation's minimum is over the same number of
    samples however fast the host is.  A traced run makes one untraced
    and one traced repetition.
    """
    inputs = traffic.write_churn(seed, scale)
    outcome = Outcome()
    warm = churn_rep(traffic.write_churn(seed, 16 * scale))
    outcome.absorb(warm.outcome)
    count = 1 if trace else max(SETUPS, round(seconds / REP_S))
    reps = [churn_rep(inputs) for _ in range(count)]
    setups = [rep.setup_s for rep in reps]
    for rep in reps:
        outcome.absorb(rep.outcome)
        agree(rep, reps[0], outcome)
    result = {
        "end_to_end": churn_end_to_end(reps, setups, inputs),
        "details": {
            "repetitions": len(reps),
            "writes": len(inputs.keys),
            "counts": reps[0].counts,
            "setups_s": setups,
            "stream_wall_s": [rep.stream_wall_s for rep in reps],
        },
    }
    if trace:
        setup_trace, stream_trace = Tracer(), Tracer()
        with kernel_counters() as registry:
            traced = churn_rep(inputs, setup_trace, stream_trace)
        outcome.absorb(traced.outcome)
        agree(traced, reps[0], outcome)
        layers = churn_per_layer(
            traced, setup_trace, stream_trace, kernel_counts(registry, outcome)
        )
        layers.update(dict.fromkeys(SERVICE_LAYERS, 0.0))
        untraced = reps[0]
        layers["tracing.overhead_pct"] = 100.0 * (
            traced.stream_wall_s / untraced.stream_wall_s - 1.0
        )
        result["per_layer"] = layers
        result["details"]["tracing_overhead_pct"] = overheads(
            {
                "setup_s": (untraced.setup_s, traced.setup_s),
                "write_ops_per_s": (
                    float(untraced.write_latencies.sum()),
                    float(traced.write_latencies.sum()),
                ),
                "lookup_p50_ms": (
                    np.median(untraced.lookup_latencies), np.median(traced.lookup_latencies)
                ),
            }
        )
        result["spans"] = {"setup": setup_trace, "stream": stream_trace}
    result["outcome"] = outcome
    result["digest"] = inputs.digest()
    return result


# --------------------------------------------------------------------- #
# Entry point                                                           #
# --------------------------------------------------------------------- #


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def load_backend() -> str:
    """Load the kernel backend the run must be served by (compiles once)."""
    from repro import kernels

    return kernels.get_backend_name()


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: int = 1) -> tuple[dict, dict]:
    """Measure one workload; returns the result document and its tracers."""
    backend = load_backend()
    if backend != EXPECTED_BACKEND:
        raise RuntimeError(
            f"kernel backend {backend!r} would serve this run, not {EXPECTED_BACKEND!r}"
        )
    if workload == "write_churn":
        result = run_churn(seed, seconds, trace, scale)
    else:
        result = run_static(workload, seed, seconds, trace, scale)
    outcome: Outcome = result.pop("outcome")
    spans = result.pop("spans", {})
    errors = [
        f"{part}: {error}" for part, tracer in spans.items() for error in tracer.nesting_errors()
    ]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": outcome.failed == 0 and not errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed + len(errors),
        "failures": {
            "wrong": outcome.wrong,
            "errors": outcome.errors,
            "missed_reads": outcome.missed,
            "span_nesting": errors[:20],
            "notes": outcome.notes[:20],
        },
        "metrics": result.pop("per_layer") if trace else result.pop("end_to_end"),
        "stamp": stamp(backend),
        **result,
    }, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(traffic.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--scale", type=int, default=1, help="divide every size (self-tests)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    document, spans = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for part, tracer in spans.items():
        tracer.dump(f"{args.result}.{part}.spans")
    with open(args.result, "w") as handle:
        json.dump(document, handle, indent=1, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
