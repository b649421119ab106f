"""The defense contract and the baselines the paper compares against.

:class:`Scheme` is the one defense interface (trace in,
:class:`DefendedTraffic` out); the byte-level baselines of Sec. II-B
and Sec. IV-D implement it directly:

* :class:`PacketPadding` — pad every data packet to l_max = 1576 B.
* :class:`TrafficMorphing` — reshape one application's packet-size
  distribution into another's (Wright et al., NDSS 2009), via a
  monotone optimal-transport coupling with fragmentation for
  shrink cases.
* :class:`PseudonymDefense` — periodically change the MAC address
  (Gruteser/Grunwald, Jiang et al.); partitions the trace at a coarse
  granularity only.
* :func:`byte_overhead` — the overhead metric of Table VI.
"""

from repro.defenses.base import (
    DefendedTraffic,
    FusedPlan,
    Scheme,
    StageOverhead,
)
from repro.defenses.padding import PacketPadding
from repro.defenses.morphing import (
    MorphingMatrix,
    TrafficMorphing,
    monotone_coupling,
)
from repro.defenses.pseudonym import PseudonymDefense
from repro.defenses.overhead import byte_overhead, overhead_percent

__all__ = [
    "DefendedTraffic",
    "FusedPlan",
    "MorphingMatrix",
    "PacketPadding",
    "PseudonymDefense",
    "Scheme",
    "StageOverhead",
    "TrafficMorphing",
    "byte_overhead",
    "monotone_coupling",
    "overhead_percent",
]
