"""Seeded inputs for the three workloads, generated here and nowhere else.

The shapes mirror SOSD books, YCSB workload E and a uniform write stream,
but the code is the benchmark's own: a change to ``repro.workloads`` cannot
change the traffic it is measured on.  Every array is a pure function of
the seed, and :func:`digest` hashes them so runs can show they saw
identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

#: Keys in each static store, its design sample, and one closed-loop round.
STATIC_KEYS = 65_536
DESIGN_QUERIES = 4_096
ROUND_REQUESTS = 16_384

BOOKS_WIDTH = 48
BOOKS_CLUSTERS = 64
BOOKS_SPREAD = 1 << 16

YCSB_MAX_SCAN = 100
YCSB_POINT_SHARE = 0.05
YCSB_MAX_GAP = 2_000  # caps the void a few huge gaps leave, so seeds differ less

CHURN_WIDTH = 32
CHURN_PRELOAD = 16_384
CHURN_WRITES = 32_768
CHURN_DELETE_SHARE = 0.1
CHURN_DESIGN_QUERIES = 1_024
#: A point-lookup call every this many writes, a range-probe call every
#: ``CHURN_PROBE_EVERY`` writes; each call carries ``CHURN_READ_SIZE`` keys.
CHURN_LOOKUP_EVERY = 32
CHURN_PROBE_EVERY = 256
CHURN_READ_SIZE = 64


def distinct_ints(rng: np.random.Generator, count: int, top: int) -> np.ndarray:
    """``count`` distinct uniform ints in ``[0, top)``, in random order."""
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        draw = rng.integers(0, top, size=2 * (count - chosen.size), dtype=np.int64)
        merged = np.concatenate([chosen, draw])
        _, first = np.unique(merged, return_index=True)
        chosen = merged[np.sort(first)]
    return chosen[:count]


def reference_answers(keys: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Exact range answers by binary search over the sorted keys."""
    idx = np.searchsorted(keys, los, side="left")
    safe = np.minimum(idx, keys.size - 1)
    return (idx < keys.size) & (keys[safe] <= his)


def digest(*arrays: np.ndarray) -> str:
    """A short sha256 over the arrays' dtypes, shapes and bytes."""
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(f"{array.dtype.str}{array.shape}".encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()[:16]


@dataclass
class StaticInputs:
    """A static store plus its design sample and one round of requests.

    ``keys``/``los``/``his`` are numeric (int64) so the reference is a
    searchsorted; ``store_keys``/``request_los``/``request_his`` are what
    the program receives (ints for books, ``user<id>`` bytes for YCSB).
    ``width`` is the integer key width, ``None`` for byte keys.
    """

    width: int | None
    keys: np.ndarray
    design_los: np.ndarray
    design_his: np.ndarray
    los: np.ndarray
    his: np.ndarray
    store_keys: object = None
    design_pairs: list = field(default_factory=list)
    request_los: list = field(default_factory=list)
    request_his: list = field(default_factory=list)
    expected: np.ndarray = None

    def finish(self, store, request) -> "StaticInputs":
        """Encode the numeric arrays into what the program is handed."""
        self.store_keys = store(self.keys)
        self.design_pairs = list(zip(request(self.design_los), request(self.design_his)))
        self.request_los = request(self.los)
        self.request_his = request(self.his)
        self.expected = reference_answers(self.keys, self.los, self.his)
        return self

    def digest(self) -> str:
        return digest(self.keys, self.design_los, self.design_his, self.los, self.his)


def books_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """Clustered 48-bit keys: uniform centres, uniform offsets around them."""
    top = (1 << BOOKS_WIDTH) - 1
    centres = rng.integers(0, top, size=BOOKS_CLUSTERS, dtype=np.int64)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < count:
        centre = centres[rng.integers(0, BOOKS_CLUSTERS, size=count)]
        offset = rng.integers(-BOOKS_SPREAD, BOOKS_SPREAD + 1, size=count)
        keys = np.unique(np.concatenate([keys, np.clip(centre + offset, 0, top)]))
    return np.sort(rng.choice(keys, size=count, replace=False))


def books_mix(
    rng: np.random.Generator, keys: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Thirds of uniform short ranges, uniform points, near-miss ranges."""
    top = (1 << BOOKS_WIDTH) - 1
    kind = rng.integers(0, 3, size=count)
    range_lo = rng.integers(0, top - 1000, size=count, dtype=np.int64)
    range_hi = range_lo + rng.integers(1, 1001, size=count)
    point = rng.integers(0, top, size=count, dtype=np.int64)
    near_lo = np.minimum(
        keys[rng.integers(0, keys.size, size=count)] + 1 + rng.integers(0, 32, size=count),
        top - 1,
    )
    near_hi = np.minimum(near_lo + rng.integers(1, 65, size=count), top)
    los = np.select([kind == 0, kind == 1], [range_lo, point], near_lo)
    his = np.select([kind == 0, kind == 1], [range_hi, point], near_hi)
    return los.astype(np.int64), his.astype(np.int64)


def sparse_reads(seed: int, scale: int = 1) -> StaticInputs:
    """SOSD-books-shaped store; about 93% of requests find nothing.

    ``scale`` divides every size (the self-test miniature uses 16).
    """
    rng = np.random.default_rng([seed, 1])
    keys = books_keys(rng, STATIC_KEYS // scale)
    design = books_mix(rng, keys, DESIGN_QUERIES // scale)
    requests = books_mix(rng, keys, ROUND_REQUESTS // scale)
    inputs = StaticInputs(BOOKS_WIDTH, keys, *design, *requests)
    return inputs.finish(lambda values: values, lambda values: values.tolist())


def ycsb_ids(rng: np.random.Generator, count: int) -> np.ndarray:
    """Zipf-popular ids: Pareto(1.1) gaps, dense near zero, long tail."""
    gaps = np.floor(rng.pareto(1.1, size=count) + 1.0)
    return np.cumsum(np.clip(gaps, 1, YCSB_MAX_GAP).astype(np.int64))


def ycsb_format(ids: np.ndarray) -> np.ndarray:
    """``user<10-digit id>`` byte strings (numeric order == byte order)."""
    return np.char.add(b"user", np.char.zfill(ids.astype("S10"), 10))


def ycsb_mix(
    rng: np.random.Generator, ids: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """95% scans of 1-100 ids from a uniform start, 5% points of live ids."""
    scan = rng.random(count) >= YCSB_POINT_SHARE
    start = rng.integers(0, ids[-1] + YCSB_MAX_SCAN, size=count, dtype=np.int64)
    span = rng.integers(1, YCSB_MAX_SCAN + 1, size=count)
    hot = ids[rng.integers(0, ids.size, size=count)]
    return np.where(scan, start, hot), np.where(scan, start + span, hot)


def ycsb_scans(seed: int, scale: int = 1) -> StaticInputs:
    """YCSB-E-shaped byte-key store; about half the requests find data."""
    rng = np.random.default_rng([seed, 2])
    ids = ycsb_ids(rng, STATIC_KEYS // scale)
    design = ycsb_mix(rng, ids, DESIGN_QUERIES // scale)
    requests = ycsb_mix(rng, ids, ROUND_REQUESTS // scale)
    inputs = StaticInputs(None, ids, *design, *requests)
    encode = lambda values: ycsb_format(values).tolist()  # noqa: E731
    return inputs.finish(encode, encode)


@dataclass
class ChurnInputs:
    """The write_churn script: preload, then writes with interleaved reads.

    Write ``i`` deletes or puts ``keys[i]`` as ``deletes[i]`` says.
    ``lookups`` maps a write index to the point-lookup call made after it
    (keys plus the model's answers); ``probes`` maps a write index to the
    range-probe call made after it.
    """

    preload: np.ndarray
    design_los: np.ndarray
    design_his: np.ndarray
    deletes: np.ndarray
    keys: np.ndarray
    lookups: dict[int, tuple[list, np.ndarray]]
    probes: dict[int, tuple[np.ndarray, np.ndarray]]
    live_at_end: int

    def digest(self) -> str:
        parts = [self.preload, self.design_los, self.design_his, self.deletes, self.keys]
        for index in sorted(self.lookups):
            parts.append(np.asarray(self.lookups[index][0], dtype=np.int64))
        for index in sorted(self.probes):
            parts.extend(self.probes[index])
        return digest(*parts)


def uniform_ranges(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    lo = rng.integers(0, (1 << CHURN_WIDTH) - 1001, size=count, dtype=np.int64)
    return lo, lo + rng.integers(1, 1001, size=count)


def write_churn(seed: int, scale: int = 1) -> ChurnInputs:
    """Replay the write stream in a set model to fix every expected answer.

    Range probes are uniform for the first half of the stream and
    near-miss (just above a live key) for the second, so the drift
    monitors see the mix shift.
    """
    rng = np.random.default_rng([seed, 3])
    top = 1 << CHURN_WIDTH
    preload_count, writes = CHURN_PRELOAD // scale, CHURN_WRITES // scale
    fresh = distinct_ints(rng, preload_count + writes, top)
    preload = fresh[:preload_count]
    design = uniform_ranges(rng, CHURN_DESIGN_QUERIES)
    live = preload.tolist()
    live_set = set(live)
    deletes = rng.random(writes) < CHURN_DELETE_SHARE
    keys = np.empty(writes, dtype=np.int64)
    cursor = preload_count
    recent: list[int] = []
    lookups: dict[int, tuple[list, np.ndarray]] = {}
    probes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    half = CHURN_READ_SIZE // 2
    for index in range(writes):
        if deletes[index]:
            victim = live.pop(int(rng.integers(0, len(live))))
            live_set.discard(victim)
            keys[index] = victim
        else:
            key = int(fresh[cursor])
            cursor += 1
            live.append(key)
            live_set.add(key)
            keys[index] = key
        recent.append(int(keys[index]))
        if index % CHURN_LOOKUP_EVERY == CHURN_LOOKUP_EVERY - 1:
            probe_keys = recent[-half:] + rng.integers(0, top, size=half).tolist()
            answers = np.array([key in live_set for key in probe_keys], dtype=bool)
            lookups[index] = (probe_keys, answers)
        if index % CHURN_PROBE_EVERY == CHURN_PROBE_EVERY - 1:
            if index < writes // 2:
                probes[index] = uniform_ranges(rng, CHURN_READ_SIZE)
            else:
                base = np.asarray(live)[rng.integers(0, len(live), size=CHURN_READ_SIZE)]
                lo = np.minimum(base + 1 + rng.integers(0, 32, size=CHURN_READ_SIZE), top - 2)
                probes[index] = (lo, np.minimum(lo + rng.integers(1, 65, size=lo.size), top - 1))
    return ChurnInputs(
        preload, design[0], design[1], deletes, keys, lookups, probes, len(live_set)
    )


WORKLOADS = {
    "sparse_reads": sparse_reads,
    "ycsb_scans": ycsb_scans,
    "write_churn": write_churn,
}
