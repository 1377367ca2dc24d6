"""Evaluation drivers: figure regeneration and experiment harnesses.

* :mod:`repro.evaluation.sweep` regenerates the paper's core figure family
  — FPR vs bits-per-key curves for every registered filter family, built
  purely through the :mod:`repro.api` registry and measured against the
  exact oracle (``python -m repro.evaluation.sweep``).
* :mod:`repro.evaluation.lsm_bench` replays point/range/mixed workloads
  through the per-SST-filtered LSM tree and reports block-read savings
  versus the no-filter and whole-key-Bloom baselines
  (``python -m repro.evaluation.lsm_bench``).
* :mod:`repro.evaluation.size_check` audits the physical succinct tries:
  SuRF's measured LOUDS-DS footprint vs the size model's prediction it
  charges, zero false negatives, scalar-vs-batch SuRF parity and
  succinct-vs-sorted Proteus trie-layer parity across every seeded
  workload family (``python -m repro.evaluation.size_check``).
* :mod:`repro.evaluation.serve_bench` measures the sharded serving layer
  — sustained QPS and micro-batched p50/p95/p99 latency per filter
  family and shard count, every answer cross-checked, with a
  machine-portable scaling regression gate
  (``python -m repro.evaluation.serve_bench``).
"""

__all__ = [
    "run_sweep",
    "check_monotone",
    "run_lsm_bench",
    "run_size_check",
    "run_serve_bench",
    "check_serve_report",
]

_LAZY = {
    "run_sweep": "repro.evaluation.sweep",
    "check_monotone": "repro.evaluation.sweep",
    "run_lsm_bench": "repro.evaluation.lsm_bench",
    "run_size_check": "repro.evaluation.size_check",
    "run_serve_bench": "repro.evaluation.serve_bench",
    "check_serve_report": "repro.evaluation.serve_bench",
}


def __getattr__(name: str):
    # Lazy (PEP 562), and not only for style: an eager `from .sweep import`
    # here would make `python -m repro.evaluation.sweep` re-execute the
    # module found in sys.modules (runpy RuntimeWarning).
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(module_name), name)
