"""Physical-vs-modelled succinct-trie size check.

The paper charges SuRF (and Proteus' trie layer) the memory its LOUDS-DS
encoding would occupy.  SuRF stores its trie in that encoding
(:mod:`repro.trie.fst`) and charges the size model's estimate of it, so
the accounting can be audited instead of trusted.  This audit builds the
succinct structures over every seeded workload family and pins three
properties:

* **size**: SuRF's measured trie footprint (``surf.trie.size_in_bits()``)
  brackets the size model's per-level-minimum estimate it charges
  (``surf.size_in_bits()``) — ``predicted <= measured <=
  predicted * (1 + tolerance)``.  The lower bound is structural (the model
  may pick dense or sparse per level independently; a physical layout must
  use a dense *prefix*), and it is met with equality whenever the
  dense-winning levels already form a prefix.  On the seeded grid the
  uniform families sit at exactly 1.0; the skewed (zipf/clustered)
  families peak at ~1.024 at the committed 5k-key scale and ~1.084 at the
  1.5k-key CI smoke scale, so the default 10% tolerance has real margin.
* **zero false negatives**: SuRF answers True on every stored key and on
  every oracle-positive held-out query.
* **parity**: the succinct ``FSTPrefixIndex`` answers *identically* to
  the ``SortedPrefixIndex`` reference, both standalone and over the trie
  layer Proteus designs and stores, and SuRF's scalar range probes answer
  as its batched ones.  A scalar probe is a one-row batch walk, so the
  SuRF term only catches interference between rows; SuRF's answers are
  held to an independent pointer-trie reference in ``tests/test_louds.py``.

Results go to a JSON report (the committed ``BENCH_pr5.json``):

    python -m repro.evaluation.size_check --output BENCH_pr5.json --check

``--check`` turns any violated property into a non-zero exit — the CI
smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import kernels
from repro.api import FilterSpec, Workload, build_filter
from repro.filters.base import TrieOracle
from repro.filters.surf import SuRF
from repro.obs.metrics import MetricsRegistry, timed
from repro.trie.fst import FSTPrefixIndex
from repro.trie.size_model import binary_trie_size_estimate
from repro.trie.sorted_index import SortedPrefixIndex

__all__ = ["run_size_check", "check_report", "main"]

#: Allowed measured/predicted overshoot.  The prefix-cutoff layout meets
#: the per-level-minimum bound exactly on the uniform families; skewed key
#: sets (whose dense-winning levels are not a prefix of the trie)
#: overshoot by ~2.4% at the committed 5k-key scale and ~8.4% on the
#: smallest (1.5k-key) CI smoke tries; 10% is the documented tolerance.
DEFAULT_TOLERANCE = 0.10

#: Every seeded workload family: the acceptance grid.
KEY_DISTS = ("uniform", "zipf", "clustered")
QUERY_FAMILIES = ("uniform", "point", "correlated", "mixed")


def _surf_record(
    workload: Workload, oracle_truth: np.ndarray, max_depth: int | None
) -> dict:
    """Build SuRF at one depth; measure its trie against the charged estimate."""
    keys = workload.keys
    surf = SuRF(keys, workload.width, max_depth)
    predicted = surf.size_in_bits()
    measured = surf.trie.size_in_bits()
    point_answers = surf.may_contain_many(keys)
    range_answers = surf.may_intersect_many(workload.queries)
    scalar_sample = [
        surf.may_intersect(lo, hi) for lo, hi in list(workload.queries.pairs())[:200]
    ]
    return {
        "structure": "surf",
        "max_depth": surf.max_depth,
        "trie_height": surf.trie_height(),
        "num_keys": surf.num_keys,
        "predicted_bits": predicted,
        "measured_bits": measured,
        "measured_over_predicted": measured / predicted if predicted else 1.0,
        "size_breakdown": surf.trie.size_breakdown(),
        "point_false_negatives": int((~point_answers).sum()),
        "range_false_negatives": int((~range_answers & oracle_truth).sum()),
        "parity_mismatches": int(scalar_sample != [bool(a) for a in range_answers[:200]]),
    }


def _prefix_index_record(workload: Workload, length: int) -> dict:
    """Compare ``FSTPrefixIndex`` against ``SortedPrefixIndex`` at one depth."""
    arr = workload.keys.keys
    width = workload.width
    sorted_index = SortedPrefixIndex.from_keys(arr, length, width)
    fst_index = FSTPrefixIndex.from_keys(arr, length, width)
    prefixes = workload.keys.prefixes(length)
    contains_equal = (
        fst_index.contains_many(prefixes) == sorted_index.contains_many(prefixes)
    ).all()
    overlaps_fst = fst_index.overlaps_many(workload.queries.los, workload.queries.his)
    overlaps_sorted = sorted_index.overlaps_many(
        workload.queries.los, workload.queries.his
    )
    return {
        "structure": "prefix_index",
        "length": length,
        "num_prefixes": len(fst_index),
        "measured_bits": fst_index.size_in_bits(),
        # Informational: the bit-granular trie the budget charges is a
        # different structure (2 bits per binary node), not a bound on the
        # byte-granular FST realisation.
        "charged_binary_trie_bits": binary_trie_size_estimate(
            workload.keys.prefix_counts(), length
        ),
        "parity_mismatches": int(not contains_equal)
        + int((overlaps_fst != overlaps_sorted).sum()),
        "range_false_negatives": 0,  # parity + sorted-index exactness cover FN
    }


def run_size_check(
    num_keys: int = 5_000,
    num_queries: int = 2_000,
    width: int = 32,
    seed: int = 42,
    key_dists: tuple[str, ...] = KEY_DISTS,
    query_families: tuple[str, ...] = QUERY_FAMILIES,
    tolerance: float = DEFAULT_TOLERANCE,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Audit physical trie sizes and answers across the workload grid.

    One record per (key distribution, query family, structure/depth); the
    report's ``summary`` aggregates the worst measured/predicted ratio and
    total violation counts so ``--check`` (and the committed benchmark)
    can gate on single numbers.  ``metrics`` optionally instruments the
    audit (per-cell timings, record counts, and the Proteus parity builds).
    """
    records: list[dict] = []
    proteus_parity: list[dict] = []
    for key_dist in key_dists:
        for query_family in query_families:
            workload = Workload.generate(
                num_keys, num_queries, width, seed=seed,
                key_dist=key_dist, query_family=query_family,
            )
            oracle = TrieOracle(workload.keys, width)
            truth = oracle.may_intersect_many(workload.queries)
            num_bytes = (width + 7) // 8
            with timed(metrics, "size_check.cell_seconds"):
                for max_depth in sorted({min(2, num_bytes), num_bytes}):
                    record = _surf_record(workload, truth, max_depth)
                    record.update(key_dist=key_dist, query_family=query_family)
                    records.append(record)
                for length in (max(1, width // 4), max(2, width // 2)):
                    record = _prefix_index_record(workload, length)
                    record.update(key_dist=key_dist, query_family=query_family)
                    records.append(record)
        # One end-to-end Proteus build per key distribution: its trie layer,
        # realised as a succinct trie at the designed depth, must answer
        # exactly as a sorted-array index over the filter's stored layer.
        workload = Workload.generate(
            num_keys, num_queries, width, seed=seed,
            key_dist=key_dist, query_family="mixed",
        )
        proteus = build_filter(FilterSpec("proteus", 14.0), None, workload, metrics=metrics)
        depth = proteus.design.trie_depth
        record = {
            "key_dist": key_dist,
            "trie_depth": depth,
            "charged_trie_bits": proteus.design.trie_bits,
            "measured_trie_bits": None,
            "parity_mismatches": 0,
        }
        if depth:
            los, his = workload.queries.los, workload.queries.his
            succinct = FSTPrefixIndex.from_keys(workload.keys.keys, depth, width)
            layer = SortedPrefixIndex(proteus.trie_layer, depth, width)
            mismatched = succinct.overlaps_many(los, his) != layer.overlaps_many(los, his)
            record["measured_trie_bits"] = succinct.size_in_bits()
            record["parity_mismatches"] = int(mismatched.sum())
        proteus_parity.append(record)
    size_records = [r for r in records if r["structure"] == "surf"]
    summary = {
        "num_records": len(records),
        "worst_measured_over_predicted": max(
            r["measured_over_predicted"] for r in size_records
        ),
        "size_violations": sum(
            1
            for r in size_records
            if not (
                r["predicted_bits"]
                <= r["measured_bits"]
                <= r["predicted_bits"] * (1 + tolerance)
            )
        ),
        "false_negatives": sum(
            r["point_false_negatives"] + r["range_false_negatives"]
            for r in records
            if r["structure"] == "surf"
        )
        + sum(r["range_false_negatives"] for r in records if r["structure"] != "surf"),
        "parity_mismatches": sum(r["parity_mismatches"] for r in records)
        + sum(r["parity_mismatches"] for r in proteus_parity),
    }
    if metrics is not None:
        metrics.inc("size_check.records", len(records))
        metrics.set_gauge(
            "size_check.worst_measured_over_predicted",
            summary["worst_measured_over_predicted"],
        )
    report = {
        "config": {
            "num_keys": num_keys,
            "num_queries": num_queries,
            "width": width,
            "seed": seed,
            "key_dists": list(key_dists),
            "query_families": list(query_families),
            "tolerance": tolerance,
        },
        "records": records,
        "proteus_trie_parity": proteus_parity,
        "summary": summary,
    }
    if metrics is not None:
        report["metrics"] = metrics.to_dict()
    return report


def check_report(report: dict) -> list[str]:
    """Return the violated acceptance properties (empty means all pass)."""
    summary = report["summary"]
    violations = []
    if summary["size_violations"]:
        violations.append(
            f"{summary['size_violations']} size record(s) outside "
            f"[predicted, predicted * (1 + {report['config']['tolerance']})] "
            f"(worst ratio {summary['worst_measured_over_predicted']:.4f})"
        )
    if summary["false_negatives"]:
        violations.append(
            f"{summary['false_negatives']} false negative(s) from physical tries"
        )
    if summary["parity_mismatches"]:
        violations.append(
            f"{summary['parity_mismatches']} answer mismatch(es) between "
            f"succinct and reference structures"
        )
    return violations


def main(argv: list[str] | None = None) -> int:
    """Run the size check from the command line."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.size_check", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--keys", type=int, default=5_000, help="number of keys")
    parser.add_argument("--queries", type=int, default=2_000, help="query count")
    parser.add_argument("--width", type=int, default=32, help="key width in bits")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed measured/predicted overshoot",
    )
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--metrics-out", default=None,
        help="instrument the audit and write the metrics payload (JSON) here",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless every size/FN/parity property holds",
    )
    args = parser.parse_args(argv)
    metrics = MetricsRegistry() if args.metrics_out else None
    kernels.attach_metrics(metrics)  # kernels.dispatch.{backend}.{kernel}
    try:
        report = run_size_check(
            num_keys=args.keys,
            num_queries=args.queries,
            width=args.width,
            seed=args.seed,
            tolerance=args.tolerance,
            metrics=metrics,
        )
    finally:
        kernels.attach_metrics(None)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    if metrics is not None:
        payload = {
            "driver": "size_check",
            "metrics": metrics.to_dict(),
            "prometheus": metrics.to_prometheus(),
        }
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(rendered)
    if args.check:
        violations = check_report(report)
        if violations:
            for violation in violations:
                print(f"FAIL: {violation}", file=sys.stderr)
            return 1
        print("OK: physical sizes match the model and answers match the references")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
