"""The filter-family registry and the uniform ``build_filter`` protocol.

Every range-filter family registers under a short name with
``@register_family("name")`` (or a direct call, as the built-ins below do).
A registered class must implement the build protocol

    ``cls.from_spec(spec, keys=None, workload=None) -> RangeFilter``

where ``spec`` is a :class:`~repro.api.spec.FilterSpec`, ``keys`` an
optional key set (defaulting to the workload's), and ``workload`` an
optional :class:`~repro.api.workload.Workload`.  :func:`build_filter` is
then the single entry point callers need — "build family F over workload W
at budget B" with no family-specific branches, which is what lets the sweep
driver and the (planned) per-SST LSM construction treat every family
identically.

Built-in registrations live *here*, not in the filter modules, so
``repro.filters`` and ``repro.core`` never import ``repro.api`` at module
level (the legacy ``build`` shims import it lazily inside the call).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.api.spec import FilterSpec
from repro.api.workload import Workload
from repro.obs.metrics import MetricsRegistry
from repro.core.prf import OnePBF, TwoPBF
from repro.core.proteus import Proteus
from repro.filters.base import RangeFilter, TrieOracle
from repro.filters.prefix_bloom import PointBloomFilter, PrefixBloomFilter
from repro.filters.rosetta import Rosetta
from repro.filters.surf import SuRF

__all__ = [
    "FilterFamily",
    "register_family",
    "registered_families",
    "family",
    "build_filter",
]


@dataclass(frozen=True)
class FilterFamily:
    """A registry entry: the builder class plus protocol metadata.

    ``requires_workload`` marks self-designing families (their query sample
    is a build *input*, not a hint); ``budget_free`` marks families whose
    footprint ignores ``bits_per_key`` (the exact oracle) — consumers that
    sweep budgets skip those.  ``accepts_metrics`` is detected from the
    ``from_spec`` signature at registration: families that take a
    ``metrics=`` keyword receive the registry ``build_filter`` was given,
    others are built untouched (third-party families opt in by adding the
    parameter).
    """

    name: str
    cls: type
    requires_workload: bool = False
    budget_free: bool = False
    accepts_metrics: bool = False


_FAMILIES: dict[str, FilterFamily] = {}

#: Histogram buckets for built filters' actual bits-per-key (upper bounds).
BITS_PER_KEY_BUCKETS = (2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0)


def register_family(
    name: str, *, requires_workload: bool = False, budget_free: bool = False
) -> Callable[[type], type]:
    """Class decorator registering a filter family under ``name``.

    The class must implement ``from_spec(spec, keys, workload)``; duplicate
    names are an error (re-registering would silently reroute every spec
    that names the family).
    """
    def decorate(cls: type) -> type:
        if name in _FAMILIES:
            raise ValueError(
                f"filter family {name!r} is already registered "
                f"(to {_FAMILIES[name].cls.__name__})"
            )
        builder = getattr(cls, "from_spec", None)
        if not callable(builder):
            raise TypeError(
                f"{cls.__name__} does not implement the build protocol "
                f"classmethod from_spec(spec, keys, workload)"
            )
        accepts_metrics = "metrics" in inspect.signature(builder).parameters
        _FAMILIES[name] = FilterFamily(
            name, cls, requires_workload, budget_free, accepts_metrics
        )
        return cls

    return decorate


def registered_families() -> tuple[str, ...]:
    """Return the registered family names, sorted."""
    return tuple(sorted(_FAMILIES))


def family(name: str) -> FilterFamily:
    """Return the registry entry for ``name`` (ValueError when unknown)."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown filter family {name!r}; "
            f"registered: {list(registered_families())}"
        ) from None


def build_filter(
    spec: FilterSpec,
    keys=None,
    workload: Workload | None = None,
    metrics: MetricsRegistry | None = None,
) -> RangeFilter:
    """Build ``spec.family`` over ``keys``/``workload`` at ``spec.bits_per_key``.

    The uniform construction entry point: dispatches through the registry
    to the family's ``from_spec``, after checking that self-designing
    families actually received the workload sample they optimise against.
    ``metrics`` optionally instruments the build: total/per-family build
    counts and timings plus the built filter's charged size, and — for
    families whose ``from_spec`` accepts it — the inner model/design-search
    phases too.
    ``metrics=None`` (the default) is the uninstrumented path: one ``is
    None`` check, nothing else.
    """
    entry = family(spec.family)
    if entry.requires_workload and workload is None:
        raise ValueError(
            f"filter family {spec.family!r} is self-designing and needs a "
            f"workload (query sample) to optimise against"
        )
    if metrics is None:
        filt = entry.cls.from_spec(spec, keys, workload)
    else:
        with metrics.timer("build.seconds"):
            if entry.accepts_metrics:
                filt = entry.cls.from_spec(spec, keys, workload, metrics=metrics)
            else:
                filt = entry.cls.from_spec(spec, keys, workload)
        metrics.inc("build.filters")
        metrics.inc(f"build.{spec.family}.filters")
        metrics.inc("build.size_bits", filt.size_in_bits())
        metrics.observe(
            "build.bits_per_key", filt.bits_per_key(), buckets=BITS_PER_KEY_BUCKETS
        )
    return filt


# --------------------------------------------------------------------- #
# Built-in families                                                     #
# --------------------------------------------------------------------- #

register_family("proteus", requires_workload=True)(Proteus)
register_family("1pbf", requires_workload=True)(OnePBF)
register_family("2pbf", requires_workload=True)(TwoPBF)
register_family("surf")(SuRF)
register_family("rosetta")(Rosetta)
register_family("prefix_bloom")(PrefixBloomFilter)
register_family("bloom")(PointBloomFilter)
register_family("oracle", budget_free=True)(TrieOracle)
