"""Seeded workload generators: key distributions and query families.

This module is the single home for synthetic workload sampling — the
test-suite (``tests/conftest.py``) and the evaluation drivers
(:mod:`repro.evaluation`) draw from here, so experiments stop hand-rolling
key/query sampling.

Everything is seeded through an explicit ``random.Random`` instance: a
failing test or a benchmark run reproduces byte-for-byte.  Queries are
inclusive ``(lo, hi)`` pairs; point queries are ``(k, k)``.

Key distributions
    * :func:`random_keys` — uniform over the key space;
    * :func:`zipf_keys` — heavy-tailed (Pareto gaps), keys piled near the
      bottom of the space with a long sparse tail, the skewed-integer
      setting of the paper's synthetic benchmarks;
    * :func:`clustered_keys` — dense clusters around uniform centres, the
      SOSD-style "books/osm" shape where keys arrive in runs.

Query families
    * :func:`uniform_queries` — uniform ranges (mostly empty, far from
      keys);
    * :func:`point_queries` — uniform point lookups;
    * :func:`correlated_queries` — near-miss ranges just above an existing
      key, sharing a long prefix with it (the adversarial family the paper
      designs against);
    * :func:`mixed_queries` — an even blend of the three.

:func:`generate_workload` bundles a key distribution and a query family
into the array-backed key set / query batch pair the batched execution
layer consumes, coerced by width (:func:`~repro.workloads.batch.coerce_keys`).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.workloads.batch import QueryBatch, coerce_keys, coerce_query_batch
from repro.workloads.keyset import KeySet

__all__ = [
    "random_keys",
    "zipf_keys",
    "clustered_keys",
    "uniform_queries",
    "point_queries",
    "correlated_queries",
    "mixed_queries",
    "KEY_DISTRIBUTIONS",
    "QUERY_FAMILIES",
    "generate_workload",
    "write_stream",
]


# --------------------------------------------------------------------- #
# Key distributions                                                     #
# --------------------------------------------------------------------- #


def random_keys(rng: random.Random, count: int, width: int) -> list[int]:
    """Return ``count`` distinct uniform ``width``-bit keys, in draw order.

    Up to 62 bits this is ``rng.sample`` over the whole space, so every
    seeded workload stays as it was; ``range(1 << width)`` has no length
    once it exceeds ``sys.maxsize``, so wider spaces draw ``width`` random
    bits at a time and keep the first ``count`` distinct values.
    """
    if width <= 62:
        return rng.sample(range(1 << width), count)
    keys: dict[int, None] = {}
    while len(keys) < count:
        keys[rng.getrandbits(width)] = None
    return list(keys)


def zipf_keys(
    rng: random.Random, count: int, width: int, skew: float = 1.2
) -> list[int]:
    """Return ``count`` distinct keys with a heavy-tailed (Pareto) density.

    Successive keys are separated by ``int(paretovariate(skew))`` gaps, so
    the set is dense near its origin and increasingly sparse — the shape a
    Zipf-popularity insert stream produces.  ``skew`` close to 1 gives the
    heaviest tail.  Falls back to uniform filling if the space is too small
    to fit ``count`` distinct keys under the sampled gaps.
    """
    if count > (1 << width):
        raise ValueError(f"cannot draw {count} distinct {width}-bit keys")
    top = (1 << width) - 1
    keys: set[int] = set()
    position = 0
    while len(keys) < count and position <= top:
        keys.add(position)
        position += max(1, int(rng.paretovariate(skew)))
    while len(keys) < count:  # tail overflowed the space: top up uniformly
        keys.add(rng.randrange(1 << width))
    return sorted(keys)


def clustered_keys(
    rng: random.Random,
    count: int,
    width: int,
    num_clusters: int = 16,
    spread: int = 1 << 12,
) -> list[int]:
    """Return ``count`` distinct keys in dense clusters around uniform centres.

    Each key is a uniform centre plus a uniform offset in ``[-spread,
    spread]`` (clamped to the key space) — runs of nearby keys with long
    shared prefixes, as produced by timestamp or location insert streams.
    """
    if count > (1 << width):
        raise ValueError(f"cannot draw {count} distinct {width}-bit keys")
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    top = (1 << width) - 1
    centres = [rng.randrange(1 << width) for _ in range(num_clusters)]
    keys: set[int] = set()
    attempts, max_attempts = 0, 64 * count
    while len(keys) < count and attempts < max_attempts:
        centre = centres[rng.randrange(num_clusters)]
        keys.add(min(top, max(0, centre + rng.randint(-spread, spread))))
        attempts += 1
    while len(keys) < count:  # clusters saturated: top up uniformly
        keys.add(rng.randrange(1 << width))
    return sorted(keys)


# --------------------------------------------------------------------- #
# Query families                                                        #
# --------------------------------------------------------------------- #


def uniform_queries(
    rng: random.Random, count: int, width: int, max_range: int
) -> list[tuple[int, int]]:
    """Uniform range queries of span ``1..max_range``.

    ``max_range`` is clamped to the key space so narrow widths stay valid
    (the clamp is a no-op for the widths the test-suite seeds, keeping
    historical workloads byte-identical).
    """
    top = (1 << width) - 1
    max_range = min(max_range, top - 1)
    if max_range < 1:
        raise ValueError(
            f"a {width}-bit key space is too narrow for uniform range queries"
        )
    queries = []
    for _ in range(count):
        lo = rng.randrange(top - max_range)
        queries.append((lo, lo + rng.randrange(1, max_range + 1)))
    return queries


def point_queries(rng: random.Random, count: int, width: int) -> list[tuple[int, int]]:
    """Uniform point queries."""
    return [(k, k) for k in (rng.randrange(1 << width) for _ in range(count))]


def correlated_queries(
    rng: random.Random,
    keys: Sequence[int],
    count: int,
    width: int,
    max_offset: int = 32,
    max_range: int = 64,
) -> list[tuple[int, int]]:
    """Near-miss ranges starting just above an existing key."""
    top = (1 << width) - 1
    queries = []
    for _ in range(count):
        key = keys[rng.randrange(len(keys))]
        lo = min(top - 1, key + 1 + rng.randrange(max_offset))
        queries.append((lo, min(top, lo + rng.randrange(1, max_range + 1))))
    return queries


def mixed_queries(
    rng: random.Random, keys: Sequence[int], count: int, width: int
) -> list[tuple[int, int]]:
    """An even blend of uniform ranges, point queries and near-miss ranges."""
    third = count // 3
    return (
        uniform_queries(rng, third, width, 1000)
        + point_queries(rng, third, width)
        + correlated_queries(rng, keys, count - 2 * third, width)
    )


# --------------------------------------------------------------------- #
# Write streams                                                         #
# --------------------------------------------------------------------- #


def write_stream(
    rng: random.Random,
    num_batches: int,
    batch_size: int,
    width: int,
    key_dist: str = "uniform",
    delete_fraction: float = 0.1,
) -> list[list[tuple[str, int]]]:
    """Seeded batches of ``("put", key)`` / ``("del", key)`` operations.

    The insert keys are drawn from ``key_dist`` (one of
    :data:`KEY_DISTRIBUTIONS`) and arrive in shuffled order — the churn an
    online LSM tree ingests.  Each op slot is a delete with probability
    ``delete_fraction``, targeting a uniformly-chosen key that was inserted
    earlier in the stream and is still live (no double deletes, no deletes
    of never-inserted keys), so replaying the stream yields a well-defined
    live set.  Returns ``num_batches`` lists of ``batch_size`` ops; the
    same ``rng`` state always reproduces the same stream.
    """
    if num_batches < 0 or batch_size < 1:
        raise ValueError("need a non-negative batch count and positive batch size")
    if not 0.0 <= delete_fraction < 1.0:
        raise ValueError(f"delete_fraction must be in [0, 1), got {delete_fraction}")
    try:
        make_keys = KEY_DISTRIBUTIONS[key_dist]
    except KeyError:
        raise ValueError(
            f"unknown key distribution {key_dist!r}; "
            f"expected one of {sorted(KEY_DISTRIBUTIONS)}"
        ) from None
    total_ops = num_batches * batch_size
    fresh = make_keys(rng, total_ops, width)
    rng.shuffle(fresh)
    live: list[int] = []
    batches: list[list[tuple[str, int]]] = []
    cursor = 0
    for _ in range(num_batches):
        ops: list[tuple[str, int]] = []
        for _ in range(batch_size):
            if live and rng.random() < delete_fraction:
                victim = live.pop(rng.randrange(len(live)))
                ops.append(("del", victim))
            else:
                key = fresh[cursor]
                cursor += 1
                live.append(key)
                ops.append(("put", key))
        batches.append(ops)
    return batches


# --------------------------------------------------------------------- #
# Bundled array-backed workloads                                        #
# --------------------------------------------------------------------- #

KEY_DISTRIBUTIONS = {
    "uniform": lambda rng, count, width: random_keys(rng, count, width),
    "zipf": lambda rng, count, width: zipf_keys(rng, count, width),
    "clustered": lambda rng, count, width: clustered_keys(rng, count, width),
}

QUERY_FAMILIES = {
    "uniform": lambda rng, keys, count, width: uniform_queries(rng, count, width, 1000),
    "point": lambda rng, keys, count, width: point_queries(rng, count, width),
    "correlated": correlated_queries,
    "mixed": mixed_queries,
}


def generate_workload(
    num_keys: int,
    num_queries: int,
    width: int,
    seed: int = 0,
    key_dist: str = "uniform",
    query_family: str = "mixed",
) -> tuple[KeySet, QueryBatch]:
    """Return a seeded ``(key set, query batch)`` workload pair.

    ``key_dist`` picks from :data:`KEY_DISTRIBUTIONS` and ``query_family``
    from :data:`QUERY_FAMILIES`; the same ``seed`` always reproduces the
    same workload byte-for-byte.
    """
    try:
        make_keys = KEY_DISTRIBUTIONS[key_dist]
    except KeyError:
        raise ValueError(
            f"unknown key distribution {key_dist!r}; "
            f"expected one of {sorted(KEY_DISTRIBUTIONS)}"
        ) from None
    try:
        make_queries = QUERY_FAMILIES[query_family]
    except KeyError:
        raise ValueError(
            f"unknown query family {query_family!r}; "
            f"expected one of {sorted(QUERY_FAMILIES)}"
        ) from None
    rng = random.Random(seed)
    keys = make_keys(rng, num_keys, width)
    queries = make_queries(rng, keys, num_queries, width)
    return coerce_keys(keys, width), coerce_query_batch(queries, width)
