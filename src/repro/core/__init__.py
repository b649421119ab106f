"""Traffic reshaping — the paper's primary contribution (Sec. III).

A *reshaper* is a function ``F(s_k) = i`` mapping each packet to one of
``I`` virtual interfaces so that the per-interface packet-size
distribution approaches a per-interface target distribution φⁱ
(Eq. 1).  The package provides:

* the naive schedulers the paper compares against — :class:`RandomReshaper`
  (RA) and :class:`RoundRobinReshaper` (RR);
* :class:`OrthogonalReshaper` — OR by size ranges (Fig. 4) and its
  modulo variant :class:`ModuloReshaper` (Fig. 5);
* :class:`FrequencyHoppingScheduler` — the FH baseline (footnote 2);
* the Eq. 1 machinery (:mod:`repro.core.optimization`,
  :mod:`repro.core.targets`) and a greedy online
  :class:`TargetDrivenReshaper` for arbitrary (non-orthogonal) targets;
* :class:`ReshaperScheme` — any reshaper as a defense
  :class:`~repro.defenses.base.Scheme` (per-interface flows plus the
  Fig. 2 handshake cost); and
* :class:`CombinedDefense` — reshaping + per-interface morphing
  (Sec. V-C).
"""

from repro.core.adaptive import QuantileBoundaryReshaper, quantile_boundaries
from repro.core.base import CONFIG_MESSAGE_BYTES, Reshaper, ReshaperScheme
from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.core.optimization import (
    ReshapingObjective,
    interface_distributions,
    objective_value,
    verify_partition,
)
from repro.core.targets import (
    PAPER_RANGES_I2,
    PAPER_RANGES_I3,
    PAPER_RANGES_I5,
    FIG4_RANGES,
    TargetDistribution,
    orthogonal_targets,
    paper_ranges,
)
from repro.core.target_driven import TargetDrivenReshaper
from repro.core.combined import CombinedDefense

__all__ = [
    "CONFIG_MESSAGE_BYTES",
    "CombinedDefense",
    "FIG4_RANGES",
    "FrequencyHoppingScheduler",
    "ModuloReshaper",
    "OrthogonalReshaper",
    "PAPER_RANGES_I2",
    "PAPER_RANGES_I3",
    "PAPER_RANGES_I5",
    "QuantileBoundaryReshaper",
    "RandomReshaper",
    "Reshaper",
    "ReshaperScheme",
    "ReshapingObjective",
    "RoundRobinReshaper",
    "TargetDistribution",
    "TargetDrivenReshaper",
    "interface_distributions",
    "objective_value",
    "orthogonal_targets",
    "paper_ranges",
    "quantile_boundaries",
    "verify_partition",
]
