"""The paper's contribution: CPFPR model, Algorithm 1, protean filters.

* :class:`~repro.core.cpfpr.CPFPRModel` — predicts a design's expected FPR
  from the key set and a sample of the query workload (Sections 3-4).
* :mod:`~repro.core.design` — Algorithm 1: enumerate, prune, and pick the
  CPFPR-minimal design under a bit budget.
* :class:`~repro.core.prf.OnePBF` / :class:`~repro.core.prf.TwoPBF` — the
  one- and two-layer protean prefix Bloom filters.
* :class:`~repro.core.proteus.Proteus` — the self-designing trie + Bloom
  hybrid; build through :func:`repro.api.build_filter` or
  ``Proteus.from_spec``.
"""

from repro.core.cpfpr import CPFPRModel
from repro.core.design import (
    FilterDesign,
    design_one_pbf,
    design_proteus,
    design_two_pbf,
)
from repro.core.prf import OnePBF, TwoPBF
from repro.core.proteus import Proteus

__all__ = [
    "CPFPRModel",
    "FilterDesign",
    "design_proteus",
    "design_one_pbf",
    "design_two_pbf",
    "OnePBF",
    "TwoPBF",
    "Proteus",
]
