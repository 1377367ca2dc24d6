"""FPR-vs-bits-per-key sweep: the paper's core figure family.

The headline comparison of the paper is Proteus's CPFPR-chosen design
against the fixed baselines at equal memory budgets.  This driver
reproduces that curve data:

* one seeded workload (keys + a *design* query sample) is generated;
* every requested family is built at every budget on the grid — purely
  through the :mod:`repro.api` registry (``FilterSpec`` → ``build_filter``),
  with no family-specific branches in the driver;
* empirical FPR is measured against :class:`~repro.filters.base.TrieOracle`
  on a *held-out* query batch (same family, different seed) — the sample
  the self-designing families optimised against is never the one they are
  graded on;
* every filter is also checked for false negatives against the oracle (a
  single FN fails the run — a fast speedup can never be bought with a
  dropped key).

Results go to a JSON report with one curve per family:

    python -m repro.evaluation.sweep --output BENCH_pr3.json

``--plot curves.png`` renders the classic log-FPR-vs-budget figure when
matplotlib is importable (it is optional and never required).
``--check-monotone`` asserts each family's empirical FPR is non-increasing
as the budget grows — the CI smoke gate.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro import kernels
from repro.api import FilterSpec, Workload, build_filter, family as family_entry
from repro.filters.base import TrieOracle
from repro.obs.metrics import MetricsRegistry, timed
from repro.workloads.batch import QueryBatch, coerce_query_batch
from repro.workloads.datasets import dataset_queries, list_datasets, load_dataset
from repro.workloads.generators import QUERY_FAMILIES

__all__ = ["held_out_queries", "run_sweep", "check_monotone", "plot_report", "main"]

#: The paper's comparison set: Proteus against the three fixed baselines.
DEFAULT_FAMILIES = ("proteus", "surf", "rosetta", "prefix_bloom")

#: Default bits-per-key grid (the x-axis of the paper's FPR figures).
DEFAULT_GRID = (8.0, 10.0, 12.0, 14.0, 16.0, 18.0)


def held_out_queries(
    workload: Workload, count: int, seed: int, query_family: str
) -> QueryBatch:
    """A fresh query batch from the same family the workload sampled.

    Seeded independently of the design sample, so empirical FPR is measured
    on queries the self-designing families never saw.  Dataset workloads
    (built by :func:`repro.workloads.datasets.load_dataset`) re-draw from
    their own query sampler instead — the dataset name rides in the
    workload metadata, so the grading loop needs no representation branch.
    """
    dataset = workload.metadata.get("dataset")
    if dataset is not None:
        return dataset_queries(dataset, workload.keys, count, seed)
    make_queries = QUERY_FAMILIES[query_family]
    rng = random.Random(seed)
    pairs = make_queries(rng, workload.keys.as_list(), count, workload.width)
    return coerce_query_batch(pairs, workload.width)


def run_sweep(
    families: tuple[str, ...] = DEFAULT_FAMILIES,
    grid: tuple[float, ...] = DEFAULT_GRID,
    num_keys: int = 10_000,
    num_queries: int = 4_000,
    num_eval_queries: int | None = None,
    width: int = 32,
    seed: int = 42,
    key_dist: str = "uniform",
    query_family: str = "mixed",
    base_params: dict[str, dict] | None = None,
    metrics: MetricsRegistry | None = None,
    dataset: str | None = None,
) -> dict:
    """Build every family at every budget and return the JSON-ready report.

    ``base_params`` optionally maps a family name to extra ``FilterSpec``
    parameters (applied at every grid point); budgets come from ``grid``.
    ``metrics`` threads a :class:`~repro.obs.metrics.MetricsRegistry`
    through every build and times the held-out grading; the report then
    grows a ``metrics`` section.  ``dataset`` swaps the synthetic workload
    for a named loader from :mod:`repro.workloads.datasets` (``width``,
    ``key_dist`` and ``query_family`` are then the dataset's own; the
    grading loop below is identical either way).
    """
    if not families:
        raise ValueError("need at least one filter family to sweep")
    if not grid:
        raise ValueError("need at least one bits-per-key budget")
    for name in families:
        if family_entry(name).budget_free:
            raise ValueError(
                f"family {name!r} ignores the bit budget; it cannot be swept"
            )
    if dataset is not None:
        workload = load_dataset(dataset, num_keys, num_queries, seed=seed)
        width = workload.width
    else:
        workload = Workload.generate(
            num_keys, num_queries, width, seed=seed,
            key_dist=key_dist, query_family=query_family,
        )
    eval_batch = held_out_queries(
        workload, num_eval_queries or num_queries, seed + 1, query_family
    )
    oracle = TrieOracle(workload.keys, width)
    truth = oracle.may_intersect_many(eval_batch)
    num_empty = int((~truth).sum())
    if num_empty == 0:
        raise ValueError(
            "the held-out queries contain no empty ranges; FPR is undefined"
        )
    curves: dict[str, list[dict]] = {}
    for name in families:
        points = []
        for bits_per_key in grid:
            spec = FilterSpec(name, bits_per_key, (base_params or {}).get(name, {}))
            filt = build_filter(spec, workload.keys, workload, metrics=metrics)
            with timed(metrics, "sweep.grade_seconds"):
                answers = filt.may_intersect_many(eval_batch)
            if metrics is not None:
                metrics.inc("sweep.points")
            false_negatives = int((~answers & truth).sum())
            if false_negatives:
                raise AssertionError(
                    f"{name} at {bits_per_key} bits/key produced "
                    f"{false_negatives} false negatives — the filter is broken"
                )
            false_positives = int((answers & ~truth).sum())
            points.append(
                {
                    "bits_per_key": float(bits_per_key),
                    "actual_bits_per_key": filt.bits_per_key(),
                    "size_in_bits": filt.size_in_bits(),
                    "empirical_fpr": false_positives / num_empty,
                    "spec": spec.to_dict(),
                }
            )
        curves[name] = points
    report = {
        "workload": workload.describe(),
        "evaluation": {
            "num_queries": len(eval_batch),
            "num_empty_queries": num_empty,
            "query_family": query_family,
            "seed": seed + 1,
        },
        "curves": curves,
    }
    if metrics is not None:
        report["metrics"] = metrics.to_dict()
    return report


def check_monotone(report: dict, tolerance: float = 0.0) -> list[str]:
    """Return violations of "FPR non-increasing as bits-per-key grows".

    ``tolerance`` is the absolute FPR slack allowed per step (empirical
    rates carry sampling noise; 0 demands strict non-increase).
    """
    violations = []
    for name, points in report["curves"].items():
        ordered = sorted(points, key=lambda p: p["bits_per_key"])
        for previous, current in zip(ordered, ordered[1:]):
            if current["empirical_fpr"] > previous["empirical_fpr"] + tolerance:
                violations.append(
                    f"{name}: FPR rose {previous['empirical_fpr']:.4g} -> "
                    f"{current['empirical_fpr']:.4g} between "
                    f"{previous['bits_per_key']} and "
                    f"{current['bits_per_key']} bits/key"
                )
    return violations


def plot_report(report: dict, path: str) -> bool:
    """Render the FPR-vs-bits-per-key figure; False when matplotlib is absent."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    figure, axes = plt.subplots(figsize=(7, 4.5))
    for name, points in sorted(report["curves"].items()):
        ordered = sorted(points, key=lambda p: p["bits_per_key"])
        axes.plot(
            [p["bits_per_key"] for p in ordered],
            # The classic figure is log-scale; lift exact zeros to the
            # measurement floor (one false positive) so they stay visible.
            [
                max(p["empirical_fpr"], 1.0 / (2 * report["evaluation"]["num_empty_queries"]))
                for p in ordered
            ],
            marker="o",
            label=name,
        )
    axes.set_yscale("log")
    axes.set_xlabel("bits per key")
    axes.set_ylabel("empirical FPR (held-out queries)")
    meta = report["workload"]["metadata"]
    axes.set_title(
        f"{meta.get('key_dist', '?')} keys / {meta.get('query_family', '?')} queries, "
        f"width {report['workload']['width']}"
    )
    axes.legend()
    figure.tight_layout()
    figure.savefig(path, dpi=150)
    plt.close(figure)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.sweep", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--families", default=",".join(DEFAULT_FAMILIES),
        help="comma-separated registry family names",
    )
    parser.add_argument(
        "--grid", default=",".join(str(b) for b in DEFAULT_GRID),
        help="comma-separated bits-per-key budgets",
    )
    parser.add_argument("--keys", type=int, default=10_000, help="number of keys")
    parser.add_argument(
        "--queries", type=int, default=4_000, help="design-sample query count"
    )
    parser.add_argument(
        "--eval-queries", type=int, default=None,
        help="held-out query count (defaults to --queries)",
    )
    parser.add_argument("--width", type=int, default=32, help="key width in bits")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--key-dist", default="uniform", choices=("uniform", "zipf", "clustered")
    )
    parser.add_argument(
        "--query-family", default="mixed",
        choices=("uniform", "point", "correlated", "mixed"),
    )
    parser.add_argument(
        "--dataset", default=None, choices=list_datasets(),
        help="swap the synthetic workload for a named dataset loader "
        "(overrides --width/--key-dist/--query-family)",
    )
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--metrics-out", default=None,
        help="instrument every build and write the metrics payload (JSON) here",
    )
    parser.add_argument("--plot", default=None, help="write a matplotlib figure here")
    parser.add_argument(
        "--check-monotone", action="store_true",
        help="fail unless every family's FPR is non-increasing in the budget",
    )
    parser.add_argument(
        "--monotone-tolerance", type=float, default=0.0,
        help="absolute FPR slack allowed per grid step by --check-monotone",
    )
    args = parser.parse_args(argv)
    metrics = MetricsRegistry() if args.metrics_out else None
    kernels.attach_metrics(metrics)  # kernels.dispatch.{backend}.{kernel}
    try:
        report = run_sweep(
            families=tuple(name for name in args.families.split(",") if name),
            grid=tuple(float(b) for b in args.grid.split(",") if b),
            num_keys=args.keys,
            num_queries=args.queries,
            num_eval_queries=args.eval_queries,
            width=args.width,
            seed=args.seed,
            key_dist=args.key_dist,
            query_family=args.query_family,
            metrics=metrics,
            dataset=args.dataset,
        )
    finally:
        kernels.attach_metrics(None)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    if metrics is not None:
        payload = {
            "driver": "sweep",
            "metrics": metrics.to_dict(),
            "prometheus": metrics.to_prometheus(),
        }
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(rendered)
    if args.plot:
        if plot_report(report, args.plot):
            print(f"wrote figure to {args.plot}")
        else:
            print("matplotlib unavailable; skipped the figure", file=sys.stderr)
    if args.check_monotone:
        violations = check_monotone(report, tolerance=args.monotone_tolerance)
        if violations:
            for violation in violations:
                print(f"FAIL: {violation}", file=sys.stderr)
            return 1
        print("OK: every family's FPR is non-increasing in bits per key")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
