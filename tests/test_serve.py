"""The serving layer: micro-batcher, shard router, worker processes, shm.

Four clusters of coverage:

* **MicroBatcher** — unit behaviour (idle flush of one loop turn's
  lookups, coalescing behind an in-flight batch, closed-loop batches of
  exactly N, size flush, close flush, point = degenerate range) plus a
  seeded concurrency stress:
  many async producers interleaving point and range lookups against a
  ground truth, asserting every caller got exactly *its* answer (no
  cross-talk, no drops) across forced batch-boundary races;
* **routing** — ``plan_shard_bounds`` / ``split_key_set`` /
  ``route_queries`` edge cases: straddling ranges fan out to every
  overlapped shard, gap queries route nowhere, single-key shards;
* **service** — inline and process modes answer identically to the
  unsharded tree for the same seeded workload, for int and byte keys;
  ``from_online`` freezes a live tree's snapshot (the parent keeps
  ingesting afterwards without perturbing served answers);
* **shared-memory lifecycle and faults** — closing the service (or
  failing to start it, a worker being SIGKILLed or SIGSTOPped mid-flight,
  or ``close()`` racing a serving thread) never leaks a ``/dev/shm``
  segment; a dead or stuck worker surfaces as :class:`ServeError` naming
  what failed, not a hang.

Process-mode tests run real workers, forked from the service's
``forkserver`` — exec'd, not forked from the test process, so the workers
still attach segments by name — and are kept small so the suite stays
fast on one core.
"""

import asyncio
import os
import random
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import FilterSpec, Workload, derive_shard_specs
from repro.evaluation.gates import check_regressions
from repro.evaluation.serve_bench import check_serve_report, run_serve_bench
from repro.lsm.online import OnlineLSMTree
from repro.lsm.tree import LSMTree
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    MicroBatcher,
    ServeError,
    ShardedLookupService,
    attach_tree,
    build_shard_trees,
    plan_shard_bounds,
    route_queries,
    shard_fences,
    snapshot_tree,
    split_key_set,
)
from repro.serve.service import WORKER_CONTEXT
from repro.workloads.batch import QueryBatch, coerce_keys

WIDTH = 24


def _population(seed=7, size=3000):
    rng = random.Random(seed)
    return sorted(rng.sample(range(1 << WIDTH), size))


def _truth(keys, lo, hi):
    arr = np.asarray(keys)
    idx = np.searchsorted(arr, lo)
    return bool(idx < arr.size and arr[idx] <= hi)


# --------------------------------------------------------------------- #
# MicroBatcher                                                          #
# --------------------------------------------------------------------- #


class RecordingBackend:
    """A synchronous answer_batch that records every batch it saw."""

    def __init__(self, keys):
        self.keys = np.asarray(keys)
        self.batches = []

    def __call__(self, los, his):
        self.batches.append(len(los))
        idx = np.searchsorted(self.keys, los)
        safe = np.minimum(idx, self.keys.size - 1)
        return (idx < self.keys.size) & (self.keys[safe] <= his)


def test_batcher_size_flush_coalesces_exactly_max_batch():
    keys = _population()
    backend = RecordingBackend(keys)

    async def run():
        async with MicroBatcher(backend, max_batch=8) as batcher:
            # Twelve lookups in one loop turn: the eighth fills max_batch
            # and flushes at once; the other four wait for that batch.
            lookups = [batcher.lookup(key - 5, key + 5) for key in keys[:12]]
            return await asyncio.gather(*lookups)

    answers = asyncio.run(run())
    assert answers == [True] * 12
    assert backend.batches == [8, 4]


def test_batcher_idle_flush_sends_one_loop_turn_as_one_batch():
    keys = _population()
    backend = RecordingBackend(keys)
    metrics = MetricsRegistry()

    async def run():
        async with MicroBatcher(backend, max_batch=1000, metrics=metrics) as b:
            lookups = [b.point(key) for key in keys[:5]] + [b.point(keys[0] + 1)]
            return await asyncio.gather(*lookups)

    answers = asyncio.run(run())
    assert answers == [True] * 5 + [False]
    assert backend.batches == [6]  # released far below max_batch
    assert metrics.to_dict()["counters"]["serve.batcher.flush.idle"] == 1


class GatedBackend(RecordingBackend):
    """A RecordingBackend whose calls block until ``release`` is set."""

    def __init__(self, keys):
        super().__init__(keys)
        self.calls = 0
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, los, his):
        self.calls += 1
        self.started.set()
        assert self.release.wait(10), "the test never released the backend"
        return super().__call__(los, his)


class SlowBackend(RecordingBackend):
    """A RecordingBackend taking 2 ms per call that records call overlap."""

    def __init__(self, keys):
        super().__init__(keys)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def __call__(self, los, his):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.002)
            return super().__call__(los, his)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_batcher_coalesces_lookups_made_while_a_batch_is_in_flight():
    keys = _population()
    backend = GatedBackend(keys)

    async def run():
        async with MicroBatcher(backend, max_batch=1000) as b:
            first = asyncio.ensure_future(b.point(keys[0]))
            assert await asyncio.to_thread(backend.started.wait, 10)
            later = [asyncio.ensure_future(b.point(key)) for key in keys[1:6]]
            await asyncio.sleep(0.05)
            # Still one call in flight; the five wait behind it.
            assert b.num_pending == 5 and backend.calls == 1
            backend.release.set()
            return await asyncio.gather(first, *later)

    assert asyncio.run(run()) == [True] * 6
    assert backend.batches == [1, 5]


def test_batcher_closed_loop_callers_form_batches_of_exactly_n():
    keys = _population()
    backend = SlowBackend(keys)
    callers, rounds = 6, 8

    async def caller(b, offset):
        return [await b.point(keys[offset + callers * r]) for r in range(rounds)]

    async def run():
        async with MicroBatcher(backend, max_batch=64) as b:
            return await asyncio.gather(*(caller(b, i) for i in range(callers)))

    assert all(answers == [True] * rounds for answers in asyncio.run(run()))
    assert sum(backend.batches) == callers * rounds
    assert backend.batches[1:] == [callers] * (len(backend.batches) - 1)
    assert backend.peak == 1  # below max_batch, never two calls in flight


def test_batcher_close_flushes_pending_and_rejects_new_lookups():
    keys = _population()
    backend = RecordingBackend(keys)

    async def run():
        batcher = MicroBatcher(backend, max_batch=1000)
        pending = asyncio.ensure_future(batcher.lookup(keys[0], keys[0]))
        await asyncio.sleep(0)  # let the lookup enqueue
        await batcher.close()
        answer = await pending
        with pytest.raises(RuntimeError, match="closed"):
            await batcher.lookup(0, 1)
        return answer

    assert asyncio.run(run()) is True


def test_batcher_backend_failure_propagates_to_every_waiter():
    def exploding(los, his):
        raise RuntimeError("backend down")

    async def run():
        async with MicroBatcher(exploding, max_batch=4) as b:
            lookups = [b.point(i) for i in range(4)]
            return await asyncio.gather(*lookups, return_exceptions=True)

    results = asyncio.run(run())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_batcher_concurrency_stress_no_crosstalk_no_drops():
    """N producers, interleaved point/range mixes, forced boundary races.

    max_batch=16 with 12 producers × 25 requests guarantees many flushes
    land mid-producer, so requests from different producers share
    batches constantly; per-request truth must still come back to the
    producer that asked.
    """
    keys = _population(seed=23)
    backend = RecordingBackend(keys)
    rng = random.Random(99)
    producers = 12
    per_producer = 25
    plans = []  # per producer: list of (lo, hi, expected)
    for _ in range(producers):
        plan = []
        for _ in range(per_producer):
            if rng.random() < 0.5:
                key = rng.choice(keys) if rng.random() < 0.5 else rng.randrange(1 << WIDTH)
                plan.append((key, key, _truth(keys, key, key)))
            else:
                lo = rng.randrange(1 << WIDTH)
                hi = min((1 << WIDTH) - 1, lo + rng.randrange(2048))
                plan.append((lo, hi, _truth(keys, lo, hi)))
        plans.append(plan)

    async def producer(batcher, plan, jitter_seed):
        jitter = random.Random(jitter_seed)
        answers = []
        for lo, hi, _ in plan:
            if jitter.random() < 0.2:
                await asyncio.sleep(0)  # shuffle arrival order across producers
            answers.append(await batcher.lookup(lo, hi))
        return answers

    async def run():
        async with MicroBatcher(backend, max_batch=16) as b:
            return await asyncio.gather(
                *[producer(b, plan, i) for i, plan in enumerate(plans)]
            )

    all_answers = asyncio.run(run())
    for plan, answers in zip(plans, all_answers):
        assert len(answers) == per_producer  # no drops
        assert answers == [expected for _, _, expected in plan]  # no cross-talk
    assert sum(backend.batches) == producers * per_producer
    assert max(backend.batches) > 1  # coalescing actually happened


# --------------------------------------------------------------------- #
# Routing                                                               #
# --------------------------------------------------------------------- #


def test_plan_shard_bounds_covers_everything_without_overlap():
    for num_keys, shards in [(10, 3), (7, 7), (5, 9), (1000, 4)]:
        bounds = plan_shard_bounds(num_keys, shards)
        assert bounds[0][0] == 0 and bounds[-1][1] == num_keys
        sizes = [stop - start for start, stop in bounds]
        assert all(size > 0 for size in sizes)
        assert sum(sizes) == num_keys
        assert max(sizes) - min(sizes) <= 1
        # Contiguous: each shard starts where the previous one stopped.
        assert all(b[0] == a[1] for a, b in zip(bounds, bounds[1:]))


def test_route_queries_straddles_and_gaps():
    key_set = coerce_keys(list(range(0, 4000, 10)), WIDTH)
    shards = split_key_set(key_set, 4)
    mins, maxs = shard_fences(shards)
    boundary = int(maxs[0])  # last key of shard 0
    los = np.array([boundary, boundary + 1, 0], dtype=np.int64)
    his = np.array([int(mins[1]), boundary + 5, 3990], dtype=np.int64)
    first, last = route_queries(mins, maxs, los, his)
    assert (first[0], last[0]) == (0, 2)  # straddles shards 0 and 1
    assert first[1] >= last[1]  # gap between fences: routes nowhere
    assert (first[2], last[2]) == (0, 4)  # full-space range hits all four


def test_self_designing_spec_without_workload_fails_at_the_boundary():
    keys = _population(size=300)
    with pytest.raises(ValueError, match="self-designing.*workload"):
        ShardedLookupService.build(
            coerce_keys(keys, WIDTH),
            num_shards=2,
            spec=FilterSpec("proteus", 12.0),
            mode="inline",
        )


def test_derive_shard_specs_preserves_global_budget():
    spec = FilterSpec("bloom", 10.0)
    counts = [100, 50, 25]
    shard_specs = derive_shard_specs(spec, counts)
    granted = sum(s.bits_per_key * n for s, n in zip(shard_specs, counts))
    assert granted == pytest.approx(spec.bits_per_key * sum(counts))


# --------------------------------------------------------------------- #
# Service: inline and process answers match the unsharded tree          #
# --------------------------------------------------------------------- #


def _eval_queries(keys, seed=5, count=600):
    rng = random.Random(seed)
    los, his = [], []
    for _ in range(count):
        if rng.random() < 0.5:
            key = rng.choice(keys) if rng.random() < 0.4 else rng.randrange(1 << WIDTH)
            los.append(key), his.append(key)
        else:
            lo = rng.randrange(1 << WIDTH)
            los.append(lo), his.append(min((1 << WIDTH) - 1, lo + rng.randrange(4096)))
    return np.array(los, dtype=np.int64), np.array(his, dtype=np.int64)


def _wide_int_case(width):
    """Keys at 0, on both sides of 2**63 and at the top of the space,
    probed by points, short ranges, the full space and a range across
    2**63."""
    rng = random.Random(width)
    top, half = (1 << width) - 1, 1 << 63
    keys = sorted(
        {0, half - 1, half, top}
        | {rng.randrange(top + 1) for _ in range(600)}
        | {half + rng.randint(-500, 500) for _ in range(60)}
    )
    los, his = [0, half - 2, 0], [top, half + 2, half - 1]
    for _ in range(300):
        if rng.random() < 0.5:
            key = rng.choice(keys) if rng.random() < 0.5 else rng.randrange(top + 1)
            los.append(key), his.append(key)
        else:
            lo = rng.randrange(top + 1)
            los.append(lo), his.append(min(top, lo + rng.randrange(1 << 20)))
    return keys, los, his


def _serve_wide(width, mode):
    keys, los, his = _wide_int_case(width)
    key_set = coerce_keys(keys, width)
    with ShardedLookupService.build(
        key_set,
        num_shards=2,
        spec=FilterSpec("proteus", 12.0),
        workload=Workload(key_set, list(zip(los, his))),
        sst_keys=64,
        mode=mode,
    ) as service:
        answers, _ = service.serve_batch(los, his)
    return answers.tolist(), [_truth(keys, lo, hi) for lo, hi in zip(los, his)]


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_service_matches_monolithic_tree_int_keys(mode):
    # Width 64 (stored int64 keys) and 80 (byte keys) serve like width 24:
    # the searchsorted truth, the same answers in both modes, and no
    # shared-memory segment left behind.
    before = _shm_segments()
    for width in (64, 80):
        answers, truth = _serve_wide(width, mode)
        assert answers == truth, width
        if mode == "process":
            assert answers == _serve_wide(width, "inline")[0], width
    assert _shm_segments() - before == set()

    keys = _population(seed=11, size=2000)
    los, his = _eval_queries(keys)
    spec = FilterSpec("bloom", 12.0)
    monolith = LSMTree.build(coerce_keys(keys, WIDTH), sst_keys=256, seed=0)
    expected = np.array(
        [_truth(keys, int(lo), int(hi)) for lo, hi in zip(los, his)]
    )
    with ShardedLookupService.build(
        coerce_keys(keys, WIDTH),
        num_shards=3,
        spec=spec,
        sst_keys=256,
        mode=mode,
    ) as service:
        answers, stats = service.serve_batch(los, his)
        assert (answers == expected).all()
        assert stats["filter_probes"] > 0
        assert sum(stats["shard_queries"]) + stats["routed_none"] >= los.size
        touched = [count > 0 for count in stats["shard_queries"]]
        assert [probe_s > 0 for probe_s in stats["shard_probe_s"]] == touched
        # In both modes a shard's probe lies inside the parent's wait for it.
        assert all(
            wait_s >= probe_s
            for wait_s, probe_s in zip(stats["shard_wait_s"], stats["shard_probe_s"])
        )
        assert service.describe()["num_shards"] == 3
    assert monolith.num_keys == sum(service.shard_sizes)


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_service_matches_truth_byte_keys(mode):
    rng = random.Random(31)
    words = sorted(
        {
            bytes(rng.choice(b"abcdxyz") for _ in range(rng.randrange(1, 6)))
            for _ in range(600)
        }
    )
    pairs = []
    for _ in range(200):
        lo = bytes(rng.choice(b"abcdxyz") for _ in range(rng.randrange(1, 4)))
        hi = lo + b"zz" if rng.random() < 0.5 else lo  # still <= 5 bytes
        pairs.append((lo, hi))
    expected = [any(lo <= w <= hi for w in words) for lo, hi in pairs]
    with ShardedLookupService.build(
        words, num_shards=2, sst_keys=128, mode=mode
    ) as service:
        answers, _ = service.serve_batch(
            [lo for lo, _ in pairs], [hi for _, hi in pairs]
        )
    assert answers.tolist() == expected


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_service_answers_bounds_of_the_other_representation(mode):
    # Byte bounds against integer keys are their padded big-endian
    # integers, and integer bounds against byte keys those integers'
    # bytes: each answers as the same bounds in the keys' own form.
    before = _shm_segments()
    workload = Workload.generate(300, 100, 32, seed=5)
    keys = workload.keys.as_list()
    rng = random.Random(3)
    pairs = [(key, key) for key in rng.sample(keys, 20)]
    for _ in range(60):
        lo = rng.randrange(1 << 32)
        pairs.append((lo, min((1 << 32) - 1, lo + rng.randrange(1 << 24))))
    expected = [_truth(keys, lo, hi) for lo, hi in pairs]
    as_bytes = [(lo.to_bytes(4, "big"), hi.to_bytes(4, "big")) for lo, hi in pairs]
    with ShardedLookupService.build(
        workload.keys, num_shards=2, spec=FilterSpec("proteus", 12.0),
        workload=workload, mode=mode,
    ) as service:
        for bounds in (pairs, as_bytes):
            answers, _ = service.serve_batch(*map(list, zip(*bounds)))
            assert answers.tolist() == expected
    words = sorted({
        bytes(rng.choice(b"abxy\x00") for _ in range(rng.randrange(1, 5))) for _ in range(300)
    })
    padded = [int.from_bytes(word.ljust(4, b"\x00"), "big") for word in words]
    pairs = [(value, value) for value in rng.sample(padded, 20)]
    pairs += [(value, value + rng.randrange(1 << 20)) for value in rng.sample(padded, 40)]
    pairs += [(value + 1, value + 1) for value in rng.sample(padded, 20)]
    expected = [_truth(padded, lo, hi) for lo, hi in pairs]
    with ShardedLookupService.build(words, num_shards=2, sst_keys=64, mode=mode) as service:
        answers, _ = service.serve_batch(*map(list, zip(*pairs)))
        assert answers.tolist() == expected
    assert _shm_segments() - before == set()


def test_service_points_and_answer_batch():
    keys = _population(seed=17, size=800)
    with ShardedLookupService.build(
        coerce_keys(keys, WIDTH), num_shards=2, mode="inline"
    ) as service:
        probes = keys[:20] + [keys[0] + 1, keys[-1] + 1]
        answers, stats = service.serve_batch(probes)  # his=None: point mode
        assert answers[:20].all()
        assert stats["required_reads"] >= 20
        plain = service.answer_batch(probes, probes)
        assert (plain == answers).all()


def test_service_closed_rejects_and_close_is_idempotent():
    keys = _population(size=300)
    service = ShardedLookupService.build(
        coerce_keys(keys, WIDTH), num_shards=2, mode="inline"
    )
    service.close()
    service.close()
    with pytest.raises(ServeError, match="closed"):
        service.serve_batch([1], [2])


def test_from_online_snapshot_is_isolated_from_later_writes():
    tree = OnlineLSMTree(
        WIDTH, spec=FilterSpec("bloom", 12.0), sst_keys=64, memtable_capacity=64
    )
    keys = _population(seed=41, size=700)
    for key in keys[:600]:
        tree.put(key)
    tree.delete(keys[0])
    tree.flush()
    live = set(keys[1:600])
    with ShardedLookupService.from_online(tree, num_shards=2, mode="inline") as service:
        # The parent keeps ingesting and compacting after the snapshot...
        for key in keys[600:]:
            tree.put(key)
        tree.flush()
        probes = keys[:700]
        answers, _ = service.serve_batch(probes)
        # ...but served answers stay frozen at snapshot time: the
        # tombstoned key and the post-snapshot keys are absent.
        assert answers.tolist() == [key in live for key in probes]
        assert tree.lookup_many(probes).tolist() == [
            key != keys[0] for key in probes
        ]


def test_from_online_requires_a_flushed_tree():
    tree = OnlineLSMTree(WIDTH)
    tree.put(3)
    with pytest.raises(ValueError, match="no SSTs"):
        ShardedLookupService.from_online(tree)


# --------------------------------------------------------------------- #
# Shared-memory lifecycle                                               #
# --------------------------------------------------------------------- #


def _segment_names(service):
    return [
        segment.name for worker in service._workers for segment in worker.segments
    ]


def _shm_exists(name):
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")


def _shm_segments():
    """Shared-memory segment names (``psm_*``) currently in /dev/shm."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def test_process_service_cleans_up_all_segments_on_close():
    keys = _population(seed=53, size=1000)
    before = _shm_segments()
    service = ShardedLookupService.build(
        coerce_keys(keys, WIDTH), num_shards=2, spec=FilterSpec("bloom", 10.0)
    )
    names = _segment_names(service)
    assert names and all(_shm_exists(name) for name in names)
    # The pickled filter lists' segments are gone once the workers are ready.
    assert _shm_segments() - before == set(names)
    answers, _ = service.serve_batch(keys[:10])
    assert answers.all()
    service.close()
    assert not any(_shm_exists(name) for name in names)
    for worker in service._workers:
        assert not worker.process.is_alive()


def test_killed_worker_raises_serve_error_and_still_cleans_up():
    keys = _population(seed=59, size=1000)
    service = ShardedLookupService.build(coerce_keys(keys, WIDTH), num_shards=2)
    names = _segment_names(service)
    try:
        os.kill(service._workers[0].process.pid, signal.SIGKILL)
        service._workers[0].process.join(10)
        with pytest.raises(ServeError, match="died"):
            service.serve_batch(keys[:10])
    finally:
        service.close()
    assert not any(_shm_exists(name) for name in names)


def test_worker_killed_mid_batch_is_named():
    # SIGKILL lands while 200k-query batches are in flight, whichever step
    # (send, probe or reply) it hits: the error names the killed worker.
    keys = _population(seed=61, size=2000)
    los = np.random.default_rng(3).integers(0, 1 << WIDTH, 200_000)
    before = _shm_segments()
    service = ShardedLookupService.build(coerce_keys(keys, WIDTH), num_shards=2)
    victim = service._workers[1].process
    timer = threading.Timer(0.05, os.kill, (victim.pid, signal.SIGKILL))
    try:
        timer.start()
        with pytest.raises(ServeError, match="shard worker 1 died"):
            for _ in range(100):
                service.serve_batch(los)
    finally:
        timer.cancel()
        service.close()
    assert not victim.is_alive()
    assert _shm_segments() - before == set()


def test_stopped_worker_times_out_then_closes():
    keys = _population(seed=63, size=1000)
    before = _shm_segments()
    service = ShardedLookupService.build(
        coerce_keys(keys, WIDTH), num_shards=2, reply_timeout=1.0
    )
    stopped = service._workers[0].process
    os.kill(stopped.pid, signal.SIGSTOP)
    try:
        start = time.monotonic()
        with pytest.raises(ServeError, match=r"no worker reply within 1\.0s"):
            service.serve_batch(keys[:10])  # all in shard 0
        assert time.monotonic() - start < 5.0
        os.kill(stopped.pid, signal.SIGCONT)
        # The late reply to the timed-out request (all True) is skipped.
        misses = [key + 1 for key in keys[:10]]
        answers, _ = service.serve_batch(misses)
        assert answers.tolist() == [_truth(keys, key, key) for key in misses]
    finally:
        os.kill(stopped.pid, signal.SIGCONT)
        service.close()
    assert not any(worker.process.is_alive() for worker in service._workers)
    assert _shm_segments() - before == set()


def test_close_racing_a_serving_thread():
    # close() waits out the batch in flight; every later call is refused.
    keys = _population(seed=67, size=1500)
    los, his = _eval_queries(keys, seed=13, count=200)
    expected = [_truth(keys, int(lo), int(hi)) for lo, hi in zip(los, his)]
    before = _shm_segments()
    service = ShardedLookupService.build(coerce_keys(keys, WIDTH), num_shards=2)
    served, refusals = [], []
    answered = threading.Event()

    def serve():
        while len(refusals) < 3:
            try:
                served.append(service.serve_batch(los, his)[0].tolist())
                answered.set()
            except ServeError as exc:
                refusals.append(str(exc))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        assert answered.wait(10.0)
    finally:
        service.close()
    thread.join(10.0)
    assert not thread.is_alive()
    assert served and all(answers == expected for answers in served)
    assert refusals == ["service is closed"] * 3
    assert _shm_segments() - before == set()


def test_failed_worker_spawn_unlinks_the_orphaned_segments(monkeypatch):
    """A shard whose Process cannot even start must not leak its segments.

    Regression: those segments are created *before* the worker handle is
    registered, so the generic close() path never saw them.
    """
    before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    def exploding_process(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(WORKER_CONTEXT, "Process", exploding_process)
    keys = _population(seed=67, size=500)
    with pytest.raises(OSError, match="no processes"):
        ShardedLookupService.build(coerce_keys(keys, WIDTH), num_shards=2)
    after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    leaked = [name for name in after - before if name.startswith("psm_")]
    assert not leaked, leaked


class ExitOnUnpickle:
    """Stand-in filter: whichever process unpickles it exits on the spot."""

    def __reduce__(self):
        return (os._exit, (3,))

    def size_in_bits(self) -> int:
        return 0


def test_worker_dying_at_startup_raises_instead_of_hanging():
    """A worker that dies while loading its filters must not hang start-up.

    Regression: the filters used to travel as ``spawn`` arguments, which
    the parent writes down a pipe whose read end it holds itself, so a
    child dying before reading them all (here: on the first filter, ahead
    of ~160 KB of Bloom filters) blocked ``ShardedLookupService(...)``
    forever.  The constructor runs in a daemon thread so that regression
    fails the test instead of hanging the suite.
    """
    keys = sorted(random.Random(71).sample(range(1 << WIDTH), 20_000))
    shards = split_key_set(coerce_keys(keys, WIDTH), 1)
    trees = build_shard_trees(shards, spec=FilterSpec("bloom", 64.0))
    trees[0].levels[0][0].filter = ExitOnUnpickle()
    before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    outcome = []

    def start():
        try:
            ShardedLookupService(trees, shards, reply_timeout=10.0).close()
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=start, daemon=True)
    thread.start()
    thread.join(30.0)
    assert not thread.is_alive(), "ShardedLookupService(...) hung on a dead worker"
    assert len(outcome) == 1 and isinstance(outcome[0], ServeError), outcome
    assert "died" in str(outcome[0])
    after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    assert not [name for name in after - before if name.startswith("psm_")]


def test_process_mode_reports_worker_probe_time_per_shard():
    keys = _population(seed=73, size=2000)
    los, his = _eval_queries(keys, seed=9, count=300)
    with ShardedLookupService.build(
        coerce_keys(keys, WIDTH), num_shards=3, spec=FilterSpec("bloom", 10.0)
    ) as service:
        service.serve_batch(los, his)  # warm the workers
        start = time.perf_counter()
        _, stats = service.serve_batch(los, his)
        wall = time.perf_counter() - start
        touched = [count > 0 for count in stats["shard_queries"]]
        assert any(touched)
        for shard_id, probe_s in enumerate(stats["shard_probe_s"]):
            wait_s = stats["shard_wait_s"][shard_id]
            if touched[shard_id]:
                # The worker's probe lies inside the parent's wait for it.
                assert 0.0 < probe_s <= wait_s <= wall
            else:
                assert probe_s == wait_s == 0.0
        _, point_stats = service.serve_batch([keys[0]])  # one shard touched
        assert sum(probe_s > 0 for probe_s in point_stats["shard_probe_s"]) == 1


@pytest.mark.parametrize("width", [32, 64, 80])
def test_serve_bench_answers_exactly_at_every_width(width):
    # Width 80 keys are byte keys: serve_bench draws its evaluation bounds
    # as integers and coerces them to bytes as the keys are.
    report = run_serve_bench(
        families=("none", "proteus"), shard_counts=(1,), num_keys=2_000,
        num_queries=256, width=width, latency_requests=64, mode="inline",
    )
    assert check_serve_report(report, min_speedup=0.0) == []
    for family, per_shards in report["configs"].items():
        assert per_shards["1"]["answer_mismatches"] == 0, family
        assert per_shards["1"]["positives"] > 0, family


def test_serve_bench_regression_check():
    # serve_bench's section: scaling ratios per family, then shard count.
    current = {"proteus": {"2": 1.5, "4": 1.0}, "none": {"2": 2.0}}
    committed = {"proteus": {"2": 1.6, "4": 2.0, "8": 3.0}, "bloom": {"2": 1.9}}
    failures = check_regressions(current, committed, tolerance=0.25, separator="@")
    # 1.5 clears 0.75 * 1.6; 1.0 misses 0.75 * 2.0; absent pairs are skipped.
    assert failures == {"proteus@4": (1.0, pytest.approx(1.5))}
    assert not check_regressions(current, committed, tolerance=0.5, separator="@")
    assert not check_regressions({"proteus": {"4": 9.0}}, committed, 0.0, "@")


def test_snapshot_attach_roundtrip_zero_copy():
    keys = _population(seed=61, size=900)
    tree = LSMTree.build(coerce_keys(keys, WIDTH), sst_keys=128, seed=0)
    spec, segments, filters = snapshot_tree(tree)
    try:
        attached, held = attach_tree(spec, filters)
        try:
            batch = QueryBatch(
                np.array(keys[:50], dtype=np.int64),
                np.array(keys[:50], dtype=np.int64),
                WIDTH,
            )
            result = attached.probe(batch)
            assert result.candidates.all()
            assert attached.num_keys == tree.num_keys
        finally:
            del attached, batch, result
            for segment in held:
                segment.close()
    finally:
        for segment in segments:
            segment.close()
            segment.unlink()
    assert not any(_shm_exists(segment.name) for segment in segments)
