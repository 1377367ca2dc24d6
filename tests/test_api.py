"""The unified construction API: FilterSpec round-trips, registry
completeness, the build protocol, and budget adherence.

Three contract layers are pinned:

* ``FilterSpec`` is frozen, JSON round-trippable, and rejects malformed
  input instead of silently dropping it;
* every exported ``RangeFilter`` family is registered and buildable through
  ``build_filter`` at 8/12/16 bits per key on a seeded workload, with zero
  false negatives against the exact oracle;
* the built filters actually honour the spec's budget: ``bits_per_key()``
  never overshoots materially, and the Bloom-backed families use the
  budget they were given (SuRF may legitimately undershoot — its trie can
  be smaller than a generous budget).
"""

import importlib
import random

import pytest

import repro
from repro.api import (
    FilterSpec,
    Workload,
    build_filter,
    family,
    register_family,
    registered_families,
)
from repro.api.registry import _FAMILIES
from repro.filters.base import TrieOracle
from repro.workloads import ByteKeySet, ByteQueryBatch, EncodedKeySet, QueryBatch
from scalar_reference import padded_int

WIDTH = 28

#: Every filter family the package exports, and whether SuRF-style
#: budget-undershoot is legitimate for it.
EXPECTED_FAMILIES = {
    "proteus": False,
    "1pbf": False,
    "2pbf": False,
    "surf": True,
    "rosetta": False,
    "prefix_bloom": False,
    "bloom": False,
    "oracle": True,
}

#: Relative overshoot allowance: byte-granular BitArray payloads and
#: Rosetta's per-level floors round a requested budget up by a few bits.
BUDGET_SLACK_BITS = 128


@pytest.fixture(scope="module")
def workload():
    return Workload.generate(
        num_keys=1500, num_queries=600, width=WIDTH, seed=11,
        key_dist="uniform", query_family="mixed",
    )


# --------------------------------------------------------------------- #
# FilterSpec                                                            #
# --------------------------------------------------------------------- #


class TestFilterSpec:
    def test_json_round_trip(self):
        specs = [
            FilterSpec("proteus"),
            FilterSpec("rosetta", 10.5),
            FilterSpec("prefix_bloom", 8, {"prefix_len": 20, "seed": 3}),
            FilterSpec("surf", 12.0, {"max_depth": 2}),
        ]
        for spec in specs:
            assert FilterSpec.from_dict(spec.to_dict()) == spec
            assert FilterSpec.from_json(spec.to_json()) == spec

    def test_params_are_read_only(self):
        spec = FilterSpec("bloom", 8, {"seed": 1})
        with pytest.raises(TypeError):
            spec.params["seed"] = 2
        with pytest.raises(AttributeError):
            spec.family = "rosetta"

    def test_to_dict_detached_from_spec(self):
        spec = FilterSpec("bloom", 8, {"seed": 1})
        data = spec.to_dict()
        data["params"]["seed"] = 99
        assert spec.params["seed"] == 1

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            FilterSpec("")
        with pytest.raises(ValueError):
            FilterSpec("bloom", 0)
        with pytest.raises(ValueError):
            FilterSpec("bloom", -3.5)
        with pytest.raises(ValueError, match="family"):
            FilterSpec.from_dict({"bits_per_key": 8})
        with pytest.raises(ValueError, match="unknown"):
            FilterSpec.from_dict({"family": "bloom", "bit_budget": 8})
        with pytest.raises(ValueError, match="params"):
            FilterSpec.from_dict({"family": "bloom", "params": [1, 2]})

    def test_specs_are_hashable(self):
        # Frozen value objects must work as dict keys (per-spec caches).
        a = FilterSpec("proteus", 14, {"seed": 1})
        b = FilterSpec("proteus", 14, {"seed": 1})
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert hash(a) != hash(a.with_budget(16))

    def test_with_budget_and_with_params(self):
        spec = FilterSpec("rosetta", 8, {"seed": 1})
        wider = spec.with_budget(16)
        assert wider.bits_per_key == 16 and wider.params == spec.params
        merged = spec.with_params(num_levels=4)
        assert merged.params == {"seed": 1, "num_levels": 4}
        assert spec.params == {"seed": 1}  # original untouched


# --------------------------------------------------------------------- #
# Registry completeness and the build protocol                          #
# --------------------------------------------------------------------- #


def test_every_exported_family_is_registered():
    assert set(EXPECTED_FAMILIES) <= set(registered_families())


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILIES))
@pytest.mark.parametrize("bits_per_key", [8, 12, 16])
def test_family_buildable_with_zero_false_negatives(name, bits_per_key, workload):
    filt = build_filter(FilterSpec(name, bits_per_key), workload.keys, workload)
    oracle = TrieOracle(workload.keys.keys, WIDTH)
    truth = oracle.may_intersect_many(workload.queries)
    answers = filt.may_intersect_many(workload.queries)
    assert not (truth & ~answers).any(), f"{name} dropped a key"
    assert filt.may_contain_many(workload.keys.keys).all()


@pytest.mark.parametrize("bits_per_key", [8, 12, 16])
def test_budget_adherence(bits_per_key, workload):
    budget = bits_per_key * len(workload.keys)
    for name, may_undershoot in EXPECTED_FAMILIES.items():
        if family(name).budget_free:
            continue
        filt = build_filter(FilterSpec(name, bits_per_key), workload.keys, workload)
        assert filt.size_in_bits() <= budget + BUDGET_SLACK_BITS, (
            f"{name} overshot the budget: {filt.size_in_bits()} > {budget}"
        )
        if not may_undershoot:
            assert filt.size_in_bits() >= 0.5 * budget, (
                f"{name} ignored the budget: {filt.size_in_bits()} << {budget}"
            )


def test_unknown_family_is_rejected(workload):
    with pytest.raises(ValueError, match="unknown filter family"):
        build_filter(FilterSpec("cuckoo"), workload.keys, workload)


def test_unknown_param_is_rejected(workload):
    spec = FilterSpec("rosetta", 8, {"nmu_levels": 4})  # typo'd knob
    with pytest.raises(ValueError, match="nmu_levels"):
        build_filter(spec, workload.keys, workload)


def test_conflicting_spec_width_is_rejected(workload):
    spec = FilterSpec("bloom", 8, {"width": WIDTH // 2})
    with pytest.raises(ValueError, match="width"):
        build_filter(spec, workload.keys, workload)


def test_self_designing_family_requires_workload(workload):
    for name in ("proteus", "1pbf", "2pbf"):
        assert family(name).requires_workload
        with pytest.raises(ValueError, match="workload"):
            build_filter(FilterSpec(name, 12), workload.keys)


def test_every_family_answers_raw_string_probes():
    # A byte filter's scalar probes are one-row batches, so they take raw
    # strings as its batch probes do, with no key space attached.
    words = Workload(
        ["banana", "cherry", "apple", "date", "fig", "grape"], [("ba", "bz"), ("c", "d")]
    )
    for name in registered_families():
        filt = build_filter(FilterSpec(name, 12), words.keys, words)
        assert not hasattr(filt, "key_space"), name
        assert filt.may_intersect("ba", "bz"), name
        assert filt.may_contain("fig"), name
        assert filt.may_contain_many(["cherry", "kiwi"])[0], name
    oracle = build_filter(FilterSpec("oracle", 12), words.keys, words)
    assert oracle.may_contain_many(["cherry", "kiwi"]).tolist() == [True, False]
    assert not oracle.may_intersect("h", "z")


@pytest.mark.parametrize("space", ["32", "64", "80", "bytes"])
def test_out_of_space_probes_raise(space):
    # A point is the range [k, k], so a probe outside the key space meets
    # the range check in every family, scalar and batched alike.
    if space == "bytes":
        w = Workload(["banana", "cherry", "apple", "fig"], [("ba", "bz")])
    else:
        w = Workload.generate(num_keys=300, num_queries=100, width=int(space), seed=5)
    top = 1 << w.width
    too_long = b"x" * (w.width // 8 + 1)
    for name in registered_families():
        filt = build_filter(FilterSpec(name, 12), w.keys, w)
        with pytest.raises(ValueError):
            filt.may_contain(-1)
        with pytest.raises(ValueError):
            filt.may_contain(top)
        with pytest.raises(ValueError):
            filt.may_contain_many([top])
        with pytest.raises(ValueError):
            filt.may_contain_many([too_long])
        if w.keys.is_bytes:
            with pytest.raises(ValueError, match=f"outside the {w.width}-bit key space"):
                filt.may_contain(too_long)


def test_scalar_byte_probes_of_an_integer_filter_act_as_batches():
    # Byte bounds against an integer filter are padded big-endian integers:
    # the scalar probe, a one-row batch, answers what the batch answers and
    # rejects what the batch rejects, with its words.
    w = Workload.generate(2000, 200, 32, seed=7)
    for name in registered_families():
        filt = build_filter(FilterSpec(name, 12), w.keys, w)
        assert filt.may_contain(b"abcd") == filt.may_contain_many([b"abcd"])[0], name
        with pytest.raises(ValueError) as batched:
            filt.may_contain_many([b"xxxxx"])
        with pytest.raises(ValueError, match="outside the 32-bit key space") as scalar:
            filt.may_contain(b"xxxxx")
        assert str(scalar.value) == str(batched.value), name


def test_key_space_layer_stays_gone():
    # Raw keys and bounds enter through coerce_keys/coerce_query_batch only:
    # no key-space object, raw-domain encoder or deferred validation.
    for name in ("KeySpace", "IntegerKeySpace", "StringKeySpace"):
        with pytest.raises(AttributeError):
            getattr(repro, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.keys.keyspace")
    with pytest.raises(TypeError):
        Workload([1, 2], [(0, 1)], key_space=None)
    with pytest.raises(TypeError):
        QueryBatch([0], [1], 8, validate=False)
    with pytest.raises(TypeError):
        ByteQueryBatch([b"a"], [b"b"], 1, validate=False)
    for cls in (EncodedKeySet, ByteKeySet, QueryBatch):
        assert not hasattr(cls, "from_raw"), cls


def test_keys_default_to_the_workload_key_set(workload):
    via_default = build_filter(FilterSpec("bloom", 8), workload=workload)
    assert via_default.num_keys == len(workload.keys)


def test_key_subset_builds_against_shared_sample(workload):
    # The LSM per-SST pattern: one workload sample, a slice of the keys.
    subset = workload.keys.keys[: len(workload.keys) // 4]
    filt = build_filter(FilterSpec("proteus", 12), subset, workload)
    assert filt.num_keys == subset.size
    assert filt.may_contain_many(subset).all()


def test_duplicate_registration_is_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_family("proteus")(TrieOracle)


def test_third_party_registration_round_trip(workload):
    class EchoOracle(TrieOracle):
        @classmethod
        def from_spec(cls, spec, keys=None, workload=None):
            return TrieOracle.from_spec.__func__(cls, spec, keys, workload)

    name = "test-echo-oracle"
    try:
        register_family(name, budget_free=True)(EchoOracle)
        filt = build_filter(FilterSpec(name, 8), workload.keys, workload)
        assert isinstance(filt, EchoOracle)
    finally:
        _FAMILIES.pop(name, None)


def test_registration_requires_from_spec():
    class NoProtocol:
        pass

    with pytest.raises(TypeError, match="from_spec"):
        register_family("test-no-protocol")(NoProtocol)


# --------------------------------------------------------------------- #
# Workload bundle                                                       #
# --------------------------------------------------------------------- #


class TestWorkload:
    def test_generate_records_provenance(self, workload):
        assert workload.metadata["seed"] == 11
        assert workload.describe()["num_keys"] == len(workload.keys)
        assert workload.width == WIDTH

    def test_raw_keys_need_a_key_space(self):
        # Raw integer keys name their space by its width; byte keys size it.
        with pytest.raises(ValueError, match="explicit width"):
            Workload([1, 2, 3], [(0, 5)])
        w = Workload([1, 2, 3], [(0, 5)], width=8)
        assert w.width == 8 and w.queries.to_list() == [(0, 5)]

    def test_raw_domain_encoding(self):
        words = ["pear", "peach", "plum"]
        w = Workload(words, [("pea", "pec")])
        assert w.num_keys == 3 and w.num_queries == 1
        assert w.width == 8 * len("peach")
        assert Workload(words, [("pea", "pec")], width=64).width == 64

    def test_padded_integer_sample_designs_like_byte_sample(self):
        # Against byte keys, integer bounds are padded big-endian integers:
        # the sample takes the keys' representation, and Algorithm 1 picks
        # the same design from either form, to the last bit of its FPR.
        rng = random.Random(17)
        alphabet = "abcdef"
        words = sorted(
            {"".join(rng.choices(alphabet, k=rng.randrange(2, 7))) for _ in range(400)}
        )
        byte_pairs = []
        for _ in range(300):
            lo, hi = sorted("".join(rng.choices(alphabet, k=3)) for _ in range(2))
            byte_pairs.append((lo, hi))
        by_bytes = Workload(words, byte_pairs)
        width = by_bytes.width
        assert width <= 64  # at most 8 bytes, so the integers fit int64
        int_pairs = [(padded_int(lo, width), padded_int(hi, width)) for lo, hi in byte_pairs]
        by_ints = Workload(words, int_pairs)
        assert isinstance(by_ints.queries, ByteQueryBatch)
        assert by_ints.queries.los.tolist() == by_bytes.queries.los.tolist()
        assert by_ints.queries.his.tolist() == by_bytes.queries.his.tolist()
        for bits_per_key in (6, 10, 16):
            spec = FilterSpec("proteus", bits_per_key)
            want = build_filter(spec, by_bytes.keys, by_bytes).design
            got = build_filter(spec, by_ints.keys, by_ints).design
            assert got == want, bits_per_key
            assert got.expected_fpr.hex() == want.expected_fpr.hex(), bits_per_key

    def test_width_mismatch_is_rejected(self, workload):
        other = QueryBatch.from_pairs([(0, 1)], WIDTH + 1)
        with pytest.raises(ValueError, match="width"):
            Workload(workload.keys, other)


# --------------------------------------------------------------------- #
# Per-SST budget derivation                                             #
# --------------------------------------------------------------------- #


class TestBudgetDerivation:
    def test_proportional_split_keeps_bits_per_key(self):
        from repro.api import allocate_sst_budgets

        budgets = allocate_sst_budgets(14.0, [512, 512, 100])
        assert budgets == [14.0, 14.0, 14.0]

    def test_equal_split_preserves_the_global_grant(self):
        from repro.api import allocate_sst_budgets

        counts = [512, 256, 64]
        budgets = allocate_sst_budgets(12.0, counts, policy="equal")
        total = sum(b * n for b, n in zip(budgets, counts))
        assert total == pytest.approx(12.0 * sum(counts))
        # Same total bits each: small SSTs run rich.
        per_sst = {round(b * n, 6) for b, n in zip(budgets, counts)}
        assert len(per_sst) == 1

    def test_rejects_bad_inputs(self):
        from repro.api import allocate_sst_budgets

        with pytest.raises(ValueError, match="at least one SST"):
            allocate_sst_budgets(8.0, [])
        with pytest.raises(ValueError, match="at least one key"):
            allocate_sst_budgets(8.0, [10, 0])
        with pytest.raises(ValueError, match="positive"):
            allocate_sst_budgets(0.0, [10])
        with pytest.raises(ValueError, match="unknown allocation policy"):
            allocate_sst_budgets(8.0, [10], policy="greedy")

    def test_derive_sst_specs_carries_family_and_params(self):
        from repro.api import derive_sst_specs

        spec = FilterSpec("proteus", 16.0, {"seed": 7})
        derived = derive_sst_specs(spec, [100, 200], policy="equal")
        assert [s.family for s in derived] == ["proteus", "proteus"]
        assert all(dict(s.params) == {"seed": 7} for s in derived)
        assert derived[0].bits_per_key > derived[1].bits_per_key
