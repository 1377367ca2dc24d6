"""The repro.kernels backend registry and the kernels' numpy-parity contract.

numpy is the reference backend: it defines each kernel's semantics, and the
compiled ``cc`` backend, when present in the environment, must match it bit
for bit on the same inputs.  These tests also pin the registry's selection
rules — explicit argument > ``REPRO_KERNEL_BACKEND`` > preference order,
silent fallback for known-but-unavailable backends, ValueError for unknown
names — and the dispatch counters exposed through ``repro.obs``.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from pointer_trie import ByteTrie, fst_from_byte_trie
from repro.amq.bitarray import BitArray
from repro.amq.bloom import BloomFilter, bloom_fpr
from repro.amq.hashing import mix64_many, premixed_pair_seeds
from repro.evaluation.gates import check_regressions
from repro.evaluation.kernel_bench import run_kernel_bench
from repro.kernels import _cc_backend
from repro.obs.metrics import MetricsRegistry
from repro.trie.bitvector import RankSelectBitVector
from repro.trie.fst import FastSuccinctTrie

COMPILED = [name for name in kernels.available_backends() if name != "numpy"]


# --------------------------------------------------------------------- #
# Registry                                                              #
# --------------------------------------------------------------------- #


def test_numpy_backend_is_always_available():
    assert "numpy" in kernels.available_backends()


def test_unknown_backend_raises_everywhere():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.get_backend_name("no-such-backend")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.bloom_positions(
            np.array([1], dtype=np.int64), 1, 3, 64, 2, backend="no-such-backend"
        )


def test_known_but_unavailable_backend_falls_back_silently(monkeypatch):
    # cc needs a C compiler; on a host without one, asking for it must
    # resolve to numpy without raising.  A failed load is cached as None.
    monkeypatch.setitem(kernels._loaded, "cc", None)
    assert "cc" not in kernels.available_backends()
    assert kernels.get_backend_name("cc") == "numpy"


def test_env_var_selects_default_backend(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    kernels.reset_default_backend()
    try:
        assert kernels.get_backend_name() == "numpy"
    finally:
        monkeypatch.delenv(kernels.ENV_VAR)
        kernels.reset_default_backend()


def test_use_backend_forces_and_restores():
    before = kernels.get_backend_name()
    with kernels.use_backend("numpy") as forced:
        assert forced == "numpy"
        assert kernels.get_backend_name() == "numpy"
    assert kernels.get_backend_name() == before


def test_dispatch_counters_flow_into_metrics():
    registry = MetricsRegistry()
    kernels.attach_metrics(registry)
    try:
        with kernels.use_backend("numpy"):
            kernels.bloom_positions(np.array([5], dtype=np.int64), 1, 3, 64, 2)
    finally:
        kernels.attach_metrics(None)
    counters = registry.to_dict()["counters"]
    assert counters["kernels.dispatch.numpy.bloom_positions"] == 1
    # Detached: further dispatches must not touch the registry.
    kernels.bloom_positions(np.array([5], dtype=np.int64), 1, 3, 64, 2)
    assert registry.to_dict()["counters"] == counters


# --------------------------------------------------------------------- #
# Kernel semantics (numpy reference)                                    #
# --------------------------------------------------------------------- #


def test_bloom_positions_matches_scalar_probe_sequence():
    bloom = BloomFilter(4_097, 300, seed=13)
    values = np.array([0, 1, 9_999, (1 << 62) + 17], dtype=np.int64)
    s1, s2 = premixed_pair_seeds(13)
    matrix = kernels.bloom_positions(
        values, s1, s2, bloom.num_bits, bloom.num_hashes, backend="numpy"
    )
    for column, value in enumerate(values.tolist()):
        assert matrix[:, column].tolist() == list(bloom._positions(value))


def test_bitvector_kernel_matches_get_and_rank_pair():
    rng = np.random.default_rng(3)
    for num_bits in (1, 7, 8, 9, 4_093):
        bits = BitArray(num_bits)
        bits.set_many(np.nonzero(rng.random(num_bits) < 0.4)[0])
        vector = RankSelectBitVector(bits)
        positions = np.concatenate(
            [[0, num_bits - 1], rng.integers(0, num_bits, size=200)]
        )
        got_bits, got_ranks = vector.get_and_rank1_many(positions)
        assert (got_bits == vector.get_many(positions)).all(), num_bits
        assert (got_ranks == vector.rank1_many(positions + 1)).all(), num_bits


def test_get_and_rank1_many_validates_and_handles_empty():
    vector = RankSelectBitVector([True, False, True])
    got_bits, got_ranks = vector.get_and_rank1_many(np.array([], dtype=np.int64))
    assert got_bits.size == 0 and got_ranks.size == 0
    with pytest.raises(IndexError):
        vector.get_and_rank1_many(np.array([3], dtype=np.int64))
    with pytest.raises(IndexError):
        vector.get_and_rank1_many(np.array([-1], dtype=np.int64))


def _random_prefix_set(rng: random.Random) -> list[bytes]:
    out = set()
    for _ in range(rng.randrange(1, 120)):
        length = rng.randint(1, 5)
        out.add(bytes(rng.randrange(256) for _ in range(length)))
    return sorted(out)


def test_bulk_fst_builder_matches_byte_trie_encoding():
    # trie_levels' end-to-end contract: the kernel-backed builder must
    # reproduce the ByteTrie walk's succinct payload byte for byte, on
    # variable-length, covering-pruned inputs.
    rng = random.Random(29)
    for _ in range(10):
        prefixes = _random_prefix_set(rng)
        reference = fst_from_byte_trie(ByteTrie(prefixes))
        bulk = FastSuccinctTrie.from_sorted_prefix_bytes(prefixes)
        assert bulk.cutoff == reference.cutoff
        assert bulk.num_leaves == reference.num_leaves
        assert bulk.size_breakdown() == reference.size_breakdown()
        assert bulk.modelled_size_in_bits() == reference.modelled_size_in_bits()
        for half in ("_dense", "_sparse"):
            ours, theirs = getattr(bulk, half), getattr(reference, half)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours.to_bytes() == theirs.to_bytes()


def test_bulk_fst_builder_rejects_empty_prefix():
    with pytest.raises(ValueError, match="empty prefix"):
        FastSuccinctTrie.from_sorted_prefix_bytes([b""])


def test_bloom_object_fallback_batches_identically():
    # Satellite: the non-word fallback hashes scalar but probes in one
    # batched pass — answers and stored bytes must equal the scalar loop.
    wide = [1 << 70, (1 << 70) + 5, 3, 1 << 99]
    scalar = BloomFilter(2_048, len(wide), seed=3)
    batched = BloomFilter(2_048, len(wide), seed=3)
    for item in wide:
        scalar.add(item)
    batched.add_many(np.array(wide, dtype=object))
    assert scalar.bits.to_bytes() == batched.bits.to_bytes()
    assert batched.inserted_items == len(wide)
    probes = wide + [7, (1 << 80) + 1]
    answers = batched.contains_many(np.array(probes, dtype=object))
    assert list(answers) == [scalar.contains(item) for item in probes]
    assert batched.contains_many(np.array([], dtype=object)).size == 0


# --------------------------------------------------------------------- #
# Compiled backends vs the numpy reference                              #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", COMPILED)
def test_compiled_bloom_kernels_are_bit_identical(backend):
    rng = np.random.default_rng(5)
    values = rng.integers(0, 1 << 62, size=2_000, dtype=np.int64)
    s1, s2 = premixed_pair_seeds(11)
    num_bits, k = 16_384, 7
    reference = np.zeros(num_bits // 8, dtype=np.uint8)
    compiled = np.zeros(num_bits // 8, dtype=np.uint8)
    kernels.bloom_add(reference, num_bits, values, s1, s2, k, backend="numpy")
    kernels.bloom_add(compiled, num_bits, values, s1, s2, k, backend=backend)
    assert reference.tobytes() == compiled.tobytes()
    probes = np.concatenate(
        [values[:500], rng.integers(0, 1 << 62, size=500, dtype=np.int64)]
    )
    want = kernels.bloom_contains(
        reference, num_bits, probes, s1, s2, k, backend="numpy"
    )
    got = kernels.bloom_contains(
        reference, num_bits, probes, s1, s2, k, backend=backend
    )
    assert (want == got).all()


def _laid_out_blooms(rng):
    """Bloom filters of 1 to 32 hashes in one buffer, plus items to probe.

    Returns ``(blooms, buffer, byte_offsets)`` and per-item ``(owner,
    values)``: half the items were inserted into their owner, half not.
    """
    shapes = [(100, 200, 1), (64, 1, 32), (4_099, 300, 5), (9, 3, 2), (5_000, 10, 32)]
    blooms, buffers, offsets, owners, values = [], [], [], [], []
    used = 0
    for index, (num_bits, num_items, seed) in enumerate(shapes):
        bloom = BloomFilter(num_bits, num_items, seed=seed)
        inserted = rng.integers(0, 1 << 40, size=num_items, dtype=np.int64)
        bloom.add_many(inserted)
        probes = np.concatenate([inserted, rng.integers(0, 1 << 40, size=num_items)])
        blooms.append(bloom)
        buffers.append(bloom.bits.words())
        offsets.append(used)
        used += bloom.bits.words().size
        owners.append(np.full(probes.size, index))
        values.append(probes)
    assert {bloom.num_hashes for bloom in blooms} >= {1, 32}
    order = rng.permutation(sum(v.size for v in values))  # interleave the owners
    owner = np.concatenate(owners)[order]
    value = np.concatenate(values)[order]
    return blooms, np.concatenate(buffers), np.array(offsets), owner, value


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_bloom_contains_hashed_matches_each_filters_own_probe(backend):
    blooms, buffer, offsets, owner, value = _laid_out_blooms(np.random.default_rng(8))
    h1 = np.empty(value.size, dtype=np.uint64)
    h2 = np.empty(value.size, dtype=np.uint64)
    want = np.empty(value.size, dtype=bool)
    for index, bloom in enumerate(blooms):
        mine = owner == index
        s1, s2 = bloom.premixed_seeds
        h1[mine] = mix64_many(value[mine].astype(np.uint64) ^ np.uint64(s1))
        h2[mine] = mix64_many(value[mine].astype(np.uint64) ^ np.uint64(s2)) | np.uint64(1)
        want[mine] = bloom.contains_many(value[mine])
    num_bits = np.array([bloom.num_bits for bloom in blooms])[owner]
    num_hashes = np.array([bloom.num_hashes for bloom in blooms])[owner]
    got = kernels.bloom_contains_hashed(
        buffer, offsets[owner], num_bits, num_hashes, h1, h2, backend=backend
    )
    assert got.dtype == bool
    assert got.tolist() == want.tolist()
    assert want.any() and not want.all()
    empty = np.zeros(0, dtype=np.uint64)
    none = kernels.bloom_contains_hashed(
        buffer, empty.astype(np.int64), empty, empty.astype(np.int64), empty, empty,
        backend=backend,
    )
    assert none.dtype == bool and none.size == 0
    with pytest.raises(ValueError):  # one offset short: never read past it
        kernels.bloom_contains_hashed(
            buffer, offsets[owner][:-1], num_bits, num_hashes, h1, h2, backend=backend
        )


@pytest.mark.parametrize("backend", COMPILED)
def test_compiled_bitvector_kernel_is_bit_identical(backend):
    rng = np.random.default_rng(6)
    for num_bits in (8, 13, 9_001):
        bits = BitArray(num_bits)
        bits.set_many(np.nonzero(rng.random(num_bits) < 0.5)[0])
        vector = RankSelectBitVector(bits)
        positions = np.concatenate(
            [[0, num_bits - 1], rng.integers(0, num_bits, size=300)]
        )
        want = kernels.bitvector_get_rank1(
            vector._byte_buffer, vector._byte_cumulative, num_bits, positions,
            backend="numpy",
        )
        got = kernels.bitvector_get_rank1(
            vector._byte_buffer, vector._byte_cumulative, num_bits, positions,
            backend=backend,
        )
        assert (want[0] == got[0]).all() and (want[1] == got[1]).all()


@pytest.mark.parametrize("backend", COMPILED)
def test_compiled_trie_levels_kernel_is_bit_identical(backend):
    rng = random.Random(31)
    for _ in range(8):
        prefixes = _random_prefix_set(rng)
        with kernels.use_backend("numpy"):
            want = FastSuccinctTrie.from_sorted_prefix_bytes(prefixes)
        with kernels.use_backend(backend):
            got = FastSuccinctTrie.from_sorted_prefix_bytes(prefixes)
        assert want.size_breakdown() == got.size_breakdown()
        for half in ("_dense", "_sparse"):
            ours, theirs = getattr(want, half), getattr(got, half)
            if ours is not None:
                assert ours.to_bytes() == theirs.to_bytes()


# --------------------------------------------------------------------- #
# cpfpr_row: Algorithm 1's row pass                                     #
# --------------------------------------------------------------------- #


#: Key widths of the row tests, width 64 (stored negatives) drawn often.
WIDTHS = st.one_of(st.sampled_from([8, 63, 64]), st.integers(8, 64))


def _stored_domain(width):
    """The int64 range stored keys of a ``width``-bit space occupy."""
    return (-(1 << 63), (1 << 63) - 1) if width == 64 else (0, (1 << width) - 1)


def _row_call(width, l1, lens, los, his, lcps, lo_lcps, hi_lcps, rng, max_probes):
    counts = np.sort(rng.integers(0, 5_000, size=width + 1))
    counts[0] = min(counts[0], 1)
    num_bits = int(rng.choice([0, 8, 64, 6_144, 1 << 20, rng.integers(1, 1 << 16)]))
    as_int64 = [np.array(a, dtype=np.int64) for a in (los, his, lcps, lo_lcps, hi_lcps)]
    return (*as_int64, width, max_probes, l1, np.array(lens, dtype=np.int64), num_bits, counts)


def _row_lens(draw, width, l1):
    lens = list(range(l1 + 1, width + 1))
    if draw(st.booleans()):  # any subset, in any order
        lens = draw(st.permutations(lens))[: draw(st.integers(1, len(lens)))]
    return lens


def _halves(rng, lcps):
    """``lo_lcps``/``hi_lcps`` whose maximum is ``lcps``: one or both sides."""
    side = rng.integers(0, 3, size=lcps.size)
    lower = (lcps * rng.random(lcps.size)).astype(np.int64)
    lo_lcps = np.where(side == 1, lower, lcps)
    hi_lcps = np.where(side == 0, lower, lcps)
    return lo_lcps, hi_lcps


@st.composite
def exact_count_rows(draw):
    """Every admitted query active in every row, so each row sums exactly
    ``active`` values: queries narrower than ``max_probes`` slots at
    ``L(q) == l1``; with ``l1 > 0`` half of them straddle an ``l1``-block
    boundary, one or both boundary blocks stored, and queries below the
    gate pad the batch."""
    width = draw(WIDTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l1 = draw(st.sampled_from([0, draw(st.integers(1, width - 1))]))
    max_probes = draw(st.sampled_from([1, 2, 64, 1_000]))
    active = draw(st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129, 136, 4_096, 4_500]))
    bottom, top = _stored_domain(width)
    block = 1 << (width - l1)
    los, his = [], []
    for _ in range(active):
        span = int(rng.integers(0, min(max_probes, top - bottom + 1)))
        lo = int(rng.integers(bottom, top - span, endpoint=True))
        if l1 and span and rng.random() < 0.5:
            # Up to span slots before the end of lo's l1-block.
            end = (lo - bottom) // block * block + bottom + block - 1
            lo = max(bottom, min(end - int(rng.integers(0, span)), top - span))
        los.append(lo), his.append(lo + span)
    lcps = np.full(active, l1)
    lo_lcps, hi_lcps = _halves(rng, lcps)
    padding = draw(st.integers(0, 50)) if l1 else 0
    points = [int(v) for v in rng.integers(bottom, top, size=padding, endpoint=True)]
    gated = rng.integers(0, max(l1, 1), size=padding)
    order = rng.permutation(active + padding)
    columns = [
        np.array(los + points, dtype=np.int64), np.array(his + points, dtype=np.int64),
        np.concatenate([lcps, gated]), np.concatenate([lo_lcps, gated]),
        np.concatenate([hi_lcps, gated]),
    ]
    return _row_call(
        width, l1, _row_lens(draw, width, l1), *(c[order] for c in columns), rng, max_probes
    )


@st.composite
def mixed_rows(draw):
    """Points, short, wide and full-space queries (stored negatives at
    width 64), with ``L(q)`` anywhere below the width: certain, clamped,
    split and gated-out queries in one row."""
    width = draw(WIDTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l1 = draw(st.sampled_from([0, draw(st.integers(0, width - 1))]))
    max_probes = draw(st.sampled_from([1, 2, 64, 1_000]))
    count = draw(st.integers(1, 300))
    bottom, top = _stored_domain(width)
    los, his = [], []
    for _ in range(count):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            los.append(bottom), his.append(top)  # the full space
            continue
        span = [0, int(rng.integers(0, 64)), 1 << int(rng.integers(0, width))][kind - 1]
        span = min(span, top - bottom)
        lo = int(rng.integers(bottom, top - span, endpoint=True))
        los.append(lo), his.append(lo + span)
    lcps = rng.integers(0, width, size=count)
    lo_lcps, hi_lcps = _halves(rng, lcps)
    lens = _row_lens(draw, width, l1)
    return _row_call(width, l1, lens, los, his, lcps, lo_lcps, hi_lcps, rng, max_probes)


def _same_rows(args, backend):
    want = kernels.cpfpr_row(*args, backend="numpy")
    got = kernels.cpfpr_row(*args, backend=backend)
    assert got.dtype == want.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


ROW_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("backend", COMPILED)
@ROW_SETTINGS
@given(args=exact_count_rows())
def test_compiled_cpfpr_row_sums_like_numpy(backend, args):
    _same_rows(args, backend)


@pytest.mark.parametrize("backend", COMPILED)
@ROW_SETTINGS
@given(args=mixed_rows())
def test_compiled_cpfpr_row_matches_numpy_on_mixed_queries(backend, args):
    _same_rows(args, backend)


def _small_row_call():
    rng = np.random.default_rng(4)
    los = rng.integers(0, 1 << 15, size=40)
    his = los + rng.integers(0, 9, size=40)
    lcps = rng.integers(0, 10, size=40)
    return list(_row_call(16, 0, [4, 9, 16], los, his, lcps, lcps, lcps, rng, 64))


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_cpfpr_row_edges(backend):
    # Nothing passes a gate deeper than every L(q): every FPR is 0.
    gated_out = _small_row_call()
    gated_out[7] = 12
    gated_out[8] = np.array([13, 16], dtype=np.int64)
    assert kernels.cpfpr_row(*gated_out, backend=backend).tolist() == [0.0, 0.0]
    # A max_probes far above every span must not size a table by it.
    huge = _small_row_call()
    huge[6] = 1 << 40
    _same_rows(tuple(huge), backend)


@pytest.mark.parametrize("backend", COMPILED)
def test_compiled_cpfpr_row_checks_what_it_indexes(backend):
    bad = _small_row_call()
    bad[8] = np.array([0, 4], dtype=np.int64)  # l2 must exceed l1
    with pytest.raises(ValueError, match="prefix lengths"):
        kernels.cpfpr_row(*bad, backend=backend)
    beyond = _small_row_call()
    beyond[8] = np.array([4, 17], dtype=np.int64)  # past the width and prefix_counts
    with pytest.raises(ValueError, match="prefix lengths"):
        kernels.cpfpr_row(*beyond, backend=backend)
    short = _small_row_call()
    short[1] = short[1][:-1]
    with pytest.raises(ValueError, match="differ in length"):
        kernels.cpfpr_row(*short, backend=backend)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_bound_rows_match_one_call_rows(backend):
    # A binding reuses its buffers across calls: rows of several depths,
    # more rows than any earlier call and a table rebuild (max_probes
    # 1,000) must each equal a fresh one-call row, and an answer already
    # returned must not change under a later call.
    rng = np.random.default_rng(8)
    los = rng.integers(0, 1 << 15, size=300)
    his = los + rng.integers(0, 900, size=300)
    lcps = rng.integers(0, 16, size=300)
    args = _row_call(16, 0, [16], los, his, lcps, lcps, lcps, rng, 1_000)
    queries, (width, max_probes), (num_bits, counts) = args[:5], args[5:7], args[9:]
    binding = kernels.bind_cpfpr_row(*queries, width, max_probes, counts)
    answers = []
    for l1, lens in ((9, [16, 12]), (0, list(range(1, 17))), (3, [4, 16, 5]), (0, [16])):
        got = binding(l1, lens, num_bits, backend)
        answers.append((got, got.copy()))
        want = kernels.cpfpr_row(
            *queries, width, max_probes, l1, np.array(lens), num_bits, counts, backend="numpy"
        )
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert all(np.array_equal(got, kept) for got, kept in answers)


def test_row_binding_dispatches_on_the_backend_in_force():
    # A binding made outside use_backend still follows it, counting one
    # dispatch per call on the backend that served it.
    args = _small_row_call()
    binding = kernels.bind_cpfpr_row(*args[:7], args[10])
    registry = MetricsRegistry()
    kernels.attach_metrics(registry)
    try:
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                binding(0, [4, 16], 640)
                binding(2, [9], 640)
    finally:
        kernels.attach_metrics(None)
    counters = registry.to_dict()["counters"]
    for backend in kernels.available_backends():
        assert counters[f"kernels.dispatch.{backend}.cpfpr_row"] == 2


# --------------------------------------------------------------------- #
# cpfpr_byte_row: the row pass over byte keys                           #
# --------------------------------------------------------------------- #


@st.composite
def byte_rows(draw):
    """Bounds of 1-16 bytes, ``L(q)`` anywhere below the width: points,
    short ranges, ranges whose carry makes the bounds differ bytes before
    their end (a window clamp once the prefix reaches 8 bytes past the
    first difference) and, where ``max_probes`` bounds every table, wide
    and full-space ranges; any prefix lengths, byte-aligned or not."""
    length = draw(st.integers(1, 16))
    width = 8 * length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l1 = draw(st.sampled_from([0, draw(st.integers(0, width - 1))]))
    max_probes = draw(st.sampled_from([1, 2, 64, 1_000, 1 << 40]))
    count = draw(st.sampled_from([1, 7, 8, 9, 128, 129, 600]))
    top = (1 << width) - 1
    pairs = []
    for _ in range(count):
        # Wide and full-space ranges only where max_probes caps their slots.
        kind = int(rng.integers(0, 5 if max_probes <= 1_000 else 3))
        if kind == 3:
            pairs.append((0, top))
            continue
        if kind == 2:
            tail = 8 * int(rng.integers(1, length + 1))
            ones = (1 << tail) - 1 - int(rng.integers(0, 4))  # ff..fX, so lo + span carries
            lo = (int(rng.integers(0, 1 << 62)) << tail | ones) & top
            span = int(rng.integers(0, 9))
        else:
            lo = int(rng.integers(0, 1 << 62)) << max(0, width - 62) & top
            lo |= int(rng.integers(0, 1 << min(width, 62)))
            if kind == 0:
                span = 0
            elif kind == 1:
                span = int(rng.integers(0, 1_000))
            else:
                span = 1 << int(rng.integers(0, width))
        pairs.append((lo, min(top, lo + span)))
    rows = [
        np.frombuffer(b"".join(v.to_bytes(length, "big") for v in side), dtype=np.uint8)
        .reshape(count, length)
        for side in zip(*pairs)
    ]
    if l1 and draw(st.booleans()):
        lcps = rng.integers(0, l1, size=count)  # nothing passes the gate
    else:
        lcps = rng.integers(0, width, size=count)
    counts = np.sort(rng.integers(0, 5_000, size=width + 1))
    counts[0] = min(counts[0], 1)
    num_bits = int(rng.choice([0, 8, 64, 6_144, 1 << 20, rng.integers(1, 1 << 16)]))
    lens = np.array(_row_lens(draw, width, l1), dtype=np.int64)
    return (*rows, lcps, max_probes, l1, lens, num_bits, counts)


def _same_byte_rows(args, backend):
    want = kernels.cpfpr_byte_row(*args, backend="numpy")
    got = kernels.cpfpr_byte_row(*args, backend=backend)
    assert got.dtype == want.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


@pytest.mark.parametrize("backend", COMPILED)
@ROW_SETTINGS
@given(args=byte_rows())
def test_compiled_cpfpr_byte_row_matches_numpy(backend, args):
    _same_byte_rows(args, backend)


def _small_byte_row_call():
    rng = np.random.default_rng(5)
    lo = rng.integers(0, 256, size=(40, 3), dtype=np.uint8)
    lo[:, 2] = np.minimum(lo[:, 2], 240)
    hi = lo.copy()
    hi[:, 2] += rng.integers(0, 16, size=40, dtype=np.uint8)
    lcps = rng.integers(0, 24, size=40)
    counts = np.sort(rng.integers(0, 5_000, size=25))
    return [lo, hi, lcps, 64, 0, np.array([4, 9, 24], dtype=np.int64), 6_144, counts]


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_cpfpr_byte_row_edges(backend):
    # Nothing passes a gate deeper than every L(q): every FPR is 0.
    gated_out = _small_byte_row_call()
    gated_out[4] = 23
    gated_out[5] = np.array([24], dtype=np.int64)
    gated_out[2] = np.minimum(gated_out[2], 22)
    assert kernels.cpfpr_byte_row(*gated_out, backend=backend).tolist() == [0.0]
    # A max_probes far above every span must not size a table by it.
    huge = _small_byte_row_call()
    huge[3] = 1 << 40
    _same_byte_rows(tuple(huge), backend)
    for l1, lens in ((0, [0, 4]), (4, [4, 9]), (0, [4, 25])):  # l2 in (l1, width]
        bad = _small_byte_row_call()
        bad[4], bad[5] = l1, np.array(lens, dtype=np.int64)
        with pytest.raises(ValueError, match="prefix lengths"):
            kernels.cpfpr_byte_row(*bad, backend=backend)


@pytest.mark.parametrize("backend", COMPILED)
def test_compiled_cpfpr_byte_row_checks_its_shapes(backend):
    short = _small_byte_row_call()
    short[1] = short[1][:-1]
    with pytest.raises(ValueError, match="differ in shape"):
        kernels.cpfpr_byte_row(*short, backend=backend)


@pytest.mark.parametrize("backend", COMPILED)
def test_compiled_bloom_keep_is_pythons_bloom_fpr(backend):
    # The compiled row pass restates bloom_fpr (hash count rule, exp, pow)
    # in C; it must round exactly as CPython's math does.
    lib = kernels._backend(backend)._lib
    rng = np.random.default_rng(12)
    items = np.concatenate(
        [[0, 1, 2, 3, 7, 512, 100_000], rng.integers(1, 1 << 20, size=400)]
    ).astype(np.int64)
    lens = np.arange(items.size, dtype=np.int64)
    for num_bits in [-1, 0, 1, 7, 8, 64, 6_144, 10**6, 1 << 40] + rng.integers(
        1, 1 << 24, size=40
    ).tolist():
        keep = np.empty(items.size)
        assert lib.cpfpr_bloom_keep(
            num_bits, items.ctypes.data, items.size, lens.ctypes.data, lens.size,
            keep.ctypes.data,
        ) == 0
        want = [(1.0 - bloom_fpr(num_bits, count)).hex() for count in items.tolist()]
        assert [v.hex() for v in keep.tolist()] == want, num_bits


def test_cc_cache_path_hashes_the_command_line():
    # A changed flag must build a new shared object, never reuse a stale one.
    base = _cc_backend._library_path("cc", ("-O2",), ("-lm",))
    assert base == _cc_backend._library_path("cc", ("-O2",), ("-lm",))
    assert base != _cc_backend._library_path("cc", ("-O3",), ("-lm",))
    assert base != _cc_backend._library_path("cc", ("-O2",), ())
    assert base != _cc_backend._library_path("gcc", ("-O2",), ("-lm",))
    assert "-ffp-contract=off" in _cc_backend._FLAGS


# --------------------------------------------------------------------- #
# kernel_bench harness                                                  #
# --------------------------------------------------------------------- #


def test_kernel_bench_reports_parity_and_speedups():
    # rounds=2 also covers the conservative-floor aggregation (the
    # committed reference is a per-round minimum of speedups).
    report = run_kernel_bench(scale=0.005, seed=3, repeats=1, rounds=2)
    assert report["workload"]["rounds"] == 2
    assert set(report["benchmarks"]) == {
        "bloom_add", "bloom_contains", "bloom_contains_hashed", "bitvector_get_rank1",
        "trie_levels", "cpfpr_row", "cpfpr_byte_row",
    }
    for kernel_name, parity in report["parity"].items():
        assert all(parity.values()), kernel_name
    for backend in report["backends"]:
        if backend == "numpy":
            continue
        for kernel_name in report["benchmarks"]:
            assert report["speedups"][kernel_name][backend] > 0


def test_kernel_bench_regression_check():
    current = {"bloom_add": {"cc": 2.0}}
    committed = {"bloom_add": {"cc": 3.0}, "trie_levels": {"cc": 9.0}}
    # trie_levels missing from the current report: skipped, not failed.
    failures = check_regressions(current, committed, tolerance=0.2, separator=".")
    assert set(failures) == {"bloom_add.cc"}
    assert failures["bloom_add.cc"] == (2.0, pytest.approx(2.4))
    assert not check_regressions(current, committed, tolerance=0.5, separator=".")
