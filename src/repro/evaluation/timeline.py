"""Timeline benchmark: the online write path under a mid-stream query shift.

The static LSM benchmark (:mod:`repro.evaluation.lsm_bench`) freezes one
tree and compares filter families on it.  This driver instead exercises
the *online* path end to end: two identical
:class:`~repro.lsm.online.OnlineLSMTree` instances ingest the same seeded
write stream (puts + tombstoned deletes) interleaved with per-epoch query
batches, and at ``shift_epoch`` the query mix is forcibly shifted from
uniform ranges to the paper's adversarial correlated near-miss family —
the exact scenario where a frozen contextual design goes stale.

* the **static** tree is frozen Proteus: every filter (initial, flush and
  compaction outputs alike) designs against the *initial* uniform sample,
  forever;
* the **adaptive** tree runs the closed loop
  (:class:`~repro.lsm.lifecycle.FilterLifecycle`): per-SST drift monitors
  grade observed FPR against each filter's CPFPR prediction, and a flag
  triggers an in-place redesign from the rolling live-query sample (which
  also refreshes the design sample future flushes/compactions build
  against).

Per epoch the report records both trees' false-positive block reads,
charged I/O, bytes compacted, filters built/rebuilt, and the adaptive
tree's drift verdicts.  :func:`check_timeline_report` is the CI gate: zero
missed reads everywhere, the actuator must actually fire after the shift,
and from ``shift_epoch + grace_epochs`` on the adaptive tree must do
*strictly* fewer false-positive block reads than the static tree, every
epoch — adaptation has to pay for itself immediately, not just on
average.
"""

from __future__ import annotations

import random

from repro.api import FilterSpec
from repro.lsm import CostModel, FilterLifecycle, OnlineLSMTree
from repro.obs.metrics import MetricsRegistry, timed
from repro.workloads.batch import QueryBatch
from repro.workloads.generators import (
    KEY_DISTRIBUTIONS,
    correlated_queries,
    uniform_queries,
    write_stream,
)

__all__ = ["run_timeline_bench", "check_timeline_report"]

#: Query families on either side of the forced shift.
PRE_SHIFT_FAMILY = "uniform"
POST_SHIFT_FAMILY = "correlated"


def _probe_summary(result, model: CostModel) -> dict:
    """Scalar probe totals for one epoch (per-level detail omitted)."""
    return {
        "num_queries": result.num_queries,
        "blocks_read": result.total_blocks_read(),
        "required_reads": result.total_required_reads(),
        "false_positive_reads": result.total_false_positive_reads(),
        "missed_reads": int(result.missed_reads.sum()),
        "io_cost": result.io_cost(model),
    }


def _tree_epoch_summary(
    tree: OnlineLSMTree, before: dict, result, model: CostModel
) -> dict:
    """One tree's epoch record: probe totals + lifecycle-counter deltas."""
    entries_written = tree.stats["entries_written"] - before["entries_written"]
    return {
        "probe": _probe_summary(result, model),
        "flushes": tree.stats["flushes"] - before["flushes"],
        "compactions": tree.stats["compactions"] - before["compactions"],
        "entries_merged": tree.stats["entries_merged"] - before["entries_merged"],
        "bytes_compacted": entries_written * tree.width // 8,
        "tombstones_dropped": (
            tree.stats["tombstones_dropped"] - before["tombstones_dropped"]
        ),
        "filters_built": tree.stats["filters_built"] - before["filters_built"],
        "num_ssts": tree.num_ssts,
        "num_entries": tree.num_entries,
        "filter_bits": tree.filter_size_bits(),
    }


def run_timeline_bench(
    family: str = "proteus",
    bits_per_key: float = 12.0,
    num_epochs: int = 6,
    writes_per_epoch: int = 1024,
    queries_per_epoch: int = 512,
    preload: int = 4096,
    shift_epoch: int = 2,
    grace_epochs: int = 1,
    width: int = 32,
    seed: int = 42,
    key_dist: str = "uniform",
    delete_fraction: float = 0.1,
    design_queries: int = 1024,
    sst_keys: int = 512,
    fanout: int = 4,
    level0_runs: int = 4,
    policy: str = "proportional",
    drift_window: int = 4,
    drift_min_empty: int = 16,
    cost_model: CostModel | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Replay the interleaved write/query timeline; return the JSON report.

    Both trees see byte-identical writes and queries; only the lifecycle
    differs.  Everything is driven by one seeded ``random.Random``, so the
    same arguments always reproduce the same report.
    """
    if num_epochs < 1:
        raise ValueError("need at least one epoch")
    if not 0 <= shift_epoch <= num_epochs:
        raise ValueError(
            f"shift_epoch {shift_epoch} outside the {num_epochs}-epoch timeline"
        )
    if grace_epochs < 0:
        raise ValueError("grace_epochs must be non-negative")
    if preload < 1:
        raise ValueError("the timeline needs a preloaded key population")
    model = cost_model or CostModel()
    rng = random.Random(seed)

    # The initial design sample *is* the pre-shift mix: uniform ranges.
    initial_sample = QueryBatch.from_pairs(
        uniform_queries(rng, design_queries, width, 1000), width
    )
    spec = FilterSpec(family, bits_per_key)

    def make_tree() -> OnlineLSMTree:
        return OnlineLSMTree(
            width,
            spec,
            design_queries=initial_sample,
            sst_keys=sst_keys,
            fanout=fanout,
            level0_runs=level0_runs,
            policy=policy,
            metrics=metrics,
        )

    adaptive = make_tree()
    static = make_tree()
    lifecycle = FilterLifecycle(
        adaptive,
        window=drift_window,
        min_empty=drift_min_empty,
        metrics=metrics,
    )

    # Preload: an all-puts burst establishing the resident key population.
    preload_keys = KEY_DISTRIBUTIONS[key_dist](rng, preload, width)
    rng.shuffle(preload_keys)
    truth: dict[int, bool] = {}
    seen_keys: list[int] = []
    for key in preload_keys:
        truth[key] = True
        seen_keys.append(key)
    preload_ops = [("put", key) for key in preload_keys]
    stream = write_stream(
        rng, num_epochs, writes_per_epoch, width,
        key_dist=key_dist, delete_fraction=delete_fraction,
    )
    for tree in (adaptive, static):
        tree.apply(preload_ops)
        tree.flush()

    epochs: list[dict] = []
    with timed(metrics, "timeline.seconds"):
        for epoch in range(num_epochs):
            ops = stream[epoch]
            for op, key in ops:
                if op == "put" and key not in truth:
                    seen_keys.append(key)
                truth[key] = op == "put"
            before_adaptive = dict(adaptive.stats)
            before_static = dict(static.stats)
            for tree in (adaptive, static):
                tree.apply(ops)
                tree.flush()
            query_family = (
                PRE_SHIFT_FAMILY if epoch < shift_epoch else POST_SHIFT_FAMILY
            )
            if query_family == PRE_SHIFT_FAMILY:
                pairs = uniform_queries(rng, queries_per_epoch, width, 1000)
            else:
                pairs = correlated_queries(
                    rng, seen_keys, queries_per_epoch, width
                )
            batch = QueryBatch.from_pairs(pairs, width)
            sst_stats: dict = {}
            adaptive_result = adaptive.probe(batch, sst_stats=sst_stats)
            # The lifecycle observes *after* the probe: rebuilds triggered by
            # this epoch's drift take effect from the next epoch's queries.
            verdict = lifecycle.observe_epoch(batch, sst_stats)
            static_result = static.probe(batch)
            for name, result in (
                ("adaptive", adaptive_result),
                ("static", static_result),
            ):
                missed = int(result.missed_reads.sum())
                if missed:
                    raise AssertionError(
                        f"epoch {epoch} ({name}): {missed} missed reads — a "
                        f"filter rejected an SST holding a matching key"
                    )
            adaptive_summary = _tree_epoch_summary(
                adaptive, before_adaptive, adaptive_result, model
            )
            adaptive_summary["drift"] = verdict
            adaptive_summary["filters_rebuilt"] = verdict["filters_rebuilt"]
            epochs.append(
                {
                    "epoch": epoch,
                    "query_family": query_family,
                    "writes": len(ops),
                    "adaptive": adaptive_summary,
                    "static": _tree_epoch_summary(
                        static, before_static, static_result, model
                    ),
                }
            )
            if metrics is not None:
                metrics.inc("timeline.epochs")

    # End-of-run integrity: both trees must agree with the replayed ground
    # truth on every key the stream ever touched (flush the residue first
    # so the check covers the whole history, not just what probe sees).
    for tree in (adaptive, static):
        tree.flush()
    # lookup_many takes the user's keys and applies the probe dispatch.
    touched = sorted(truth)
    expected = [truth[key] for key in touched]
    lookup_consistent = {
        name: bool((tree.lookup_many(touched).tolist() == expected))
        for name, tree in (("adaptive", adaptive), ("static", static))
    }

    def totals(name: str) -> dict:
        summed: dict[str, float] = {}
        for record in epochs:
            side = record[name]
            for key in (
                "flushes", "compactions", "entries_merged", "bytes_compacted",
                "tombstones_dropped", "filters_built",
            ):
                summed[key] = summed.get(key, 0) + side[key]
            for key in (
                "blocks_read", "required_reads", "false_positive_reads",
                "missed_reads", "io_cost",
            ):
                summed[key] = summed.get(key, 0) + side["probe"][key]
        if name == "adaptive":
            summed["filters_rebuilt"] = lifecycle.stats["filters_rebuilt"]
            summed["drift_flags"] = lifecycle.stats["drift_flags"]
        return summed

    report = {
        "mode": "timeline",
        "family": family,
        "bits_per_key": float(bits_per_key),
        "width": width,
        "seed": seed,
        "key_dist": key_dist,
        "delete_fraction": delete_fraction,
        "budget_policy": policy,
        "cost_model": model.to_dict(),
        "geometry": {
            "sst_keys": sst_keys,
            "fanout": fanout,
            "level0_runs": level0_runs,
        },
        "timeline": {
            "num_epochs": num_epochs,
            "writes_per_epoch": writes_per_epoch,
            "queries_per_epoch": queries_per_epoch,
            "preload": preload,
            "shift_epoch": shift_epoch,
            "grace_epochs": grace_epochs,
            "pre_shift_family": PRE_SHIFT_FAMILY,
            "post_shift_family": POST_SHIFT_FAMILY,
        },
        "design_sample": {
            "num_queries": design_queries,
            "query_family": PRE_SHIFT_FAMILY,
        },
        "lifecycle": lifecycle.to_dict(),
        "trees": {
            "adaptive": adaptive.describe(),
            "static": static.describe(),
        },
        "integrity": {"lookup_consistent": lookup_consistent},
        "epochs": epochs,
        "totals": {"adaptive": totals("adaptive"), "static": totals("static")},
    }
    if metrics is not None:
        report["metrics"] = metrics.to_dict()
    return report


def check_timeline_report(report: dict) -> list[str]:
    """Return violations of the closed-loop gate (empty = pass).

    * zero missed reads on both trees, every epoch (no false negatives,
      ever — deletes included);
    * end-of-run lookups on both trees must match the replayed ground
      truth exactly (tombstone semantics survive compaction);
    * the drift actuator must fire at least once after the forced shift;
    * from ``shift_epoch + grace_epochs`` on, the adaptive tree's
      false-positive block reads must be *strictly* below the static
      tree's in every epoch — the rebuilt designs must win immediately.
    """
    violations: list[str] = []
    shift = report["timeline"]["shift_epoch"]
    grace = report["timeline"]["grace_epochs"]
    for record in report["epochs"]:
        epoch = record["epoch"]
        for name in ("adaptive", "static"):
            missed = record[name]["probe"]["missed_reads"]
            if missed:
                violations.append(f"epoch {epoch} ({name}): {missed} missed reads")
    for name, consistent in report["integrity"]["lookup_consistent"].items():
        if not consistent:
            violations.append(
                f"{name}: end-of-run lookups disagree with the replayed "
                f"ground truth"
            )
    if report["totals"]["adaptive"].get("filters_rebuilt", 0) < 1:
        violations.append(
            "the drift actuator never fired: no filter was rebuilt after "
            "the query shift"
        )
    judged = [r for r in report["epochs"] if r["epoch"] >= shift + grace]
    if not judged:
        violations.append(
            f"no epochs after shift {shift} + grace {grace}: nothing to gate"
        )
    for record in judged:
        adaptive_fp = record["adaptive"]["probe"]["false_positive_reads"]
        static_fp = record["static"]["probe"]["false_positive_reads"]
        if adaptive_fp >= static_fp:
            violations.append(
                f"epoch {record['epoch']}: adaptive false-positive reads "
                f"{adaptive_fp} not strictly below static's {static_fp}"
            )
    return violations
