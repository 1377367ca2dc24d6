"""The ``--check-against`` regression gate shared by the benchmark drivers."""

from __future__ import annotations

__all__ = ["check_regressions"]


def check_regressions(
    current: dict, committed: dict, tolerance: float, separator: str
) -> dict[str, tuple[float, float]]:
    """Return ``{outer + separator + inner: (current, required)}`` per regression.

    ``current`` and ``committed`` are the same report section from two
    runs: a nested ``{outer: {inner: ratio}}`` map of higher-is-better
    ratios — ``kernel_bench``'s ``speedups`` (kernel, then backend) or
    ``serve_bench``'s ``scaling`` (family, then shard count).  A ratio
    gates only when both sections hold it, so a committed report can
    document backends or configurations a runner lacks.  It regresses
    when it falls below ``(1 - tolerance)`` times the committed value;
    the check is one-sided, so running faster never fails.
    """
    failures: dict[str, tuple[float, float]] = {}
    for outer, per_inner in committed.items():
        for inner, reference in per_inner.items():
            value = current.get(outer, {}).get(inner)
            if value is None:
                continue
            required = reference * (1.0 - tolerance)
            if value < required:
                failures[f"{outer}{separator}{inner}"] = (value, required)
    return failures
