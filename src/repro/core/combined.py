"""Combined defense: reshaping + per-interface morphing (Sec. V-C).

"we use traffic reshaping together with traffic morphing on a virtual
interface. In this case, the accuracy will be reduced further while
incurring much less overhead than traffic morphing" — e.g. morphing the
chat-like interface to look like gaming and the mid-size interface to
pretend browsing drives the mean accuracy under 28 %.

The combined defense first reshapes a trace with any
:class:`~repro.core.base.Reshaper`, then applies a per-interface
morphing map to selected observable flows.  Overhead comes only from
the morphed interfaces, which carry a fraction of the traffic — hence
"much less overhead than [full] traffic morphing".
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Reshaper, ReshaperScheme
from repro.defenses.base import (
    DefendedTraffic,
    FusedPlan,
    Scheme,
    StageOverhead,
    gather_flows,
)
from repro.defenses.morphing import TrafficMorphing
from repro.traffic.trace import Trace

__all__ = ["CombinedDefense"]


class CombinedDefense(Scheme):
    """Reshape, then morph selected virtual interfaces.

    Args:
        reshaper: the scheduler partitioning traffic over interfaces.
        interface_targets: map from interface index to a target trace;
            the flow on that interface is morphed toward the target's
            size distribution.  Interfaces absent from the map pass
            through unmorphed.
        morph_all_packets: morph both directions of the selected
            interfaces (default morphs the downlink only, which leaves
            uplink ack streams — and thus downloading/uploading's
            identifiability — untouched, matching Sec. V-C's outcome).
        seed: randomness for the morphing samplers.
    """

    name = "reshaping+morphing"

    def __init__(
        self,
        reshaper: Reshaper,
        interface_targets: dict[int, Trace],
        morph_all_packets: bool = False,
        seed: int = 0,
    ):
        self._reshaping = ReshaperScheme(self.name, reshaper)
        self._interface_targets = dict(interface_targets)
        self._morph_all = bool(morph_all_packets)
        self._seed = int(seed)

    def _morpher(self, iface: int) -> TrafficMorphing | None:
        """The morpher of interface ``iface``, or ``None`` if it passes through."""
        target = self._interface_targets.get(iface)
        if target is None:
            return None
        return TrafficMorphing(
            target_trace=target,
            morph_all_packets=self._morph_all,
            seed=self._seed + iface,
        )

    def transform(self, trace: Trace) -> DefendedTraffic:
        """Reshape ``trace`` then morph the configured interfaces."""
        result = self._reshaping.transform(trace)
        flows: dict[int, Trace] = {}
        extra = 0
        for iface, flow in result.flows.items():
            morpher = self._morpher(iface)
            if morpher is None or len(flow) == 0:
                flows[iface] = flow
                continue
            morphed = morpher.transform(flow)
            flows[iface] = morphed.observable_flows[0]
            extra += morphed.extra_bytes
        return DefendedTraffic(original=trace, flows=flows, extra_bytes=extra)

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        """The reshaper's assignments, then one morph gather per chosen interface."""
        ifaces = self._reshaping.reshaper.assign_columns(times, sizes, directions)
        partition = FusedPlan.from_assignments(ifaces)
        flows = []
        # Flow f is the f-th occupied interface, as split_by_iface orders them.
        for flow, iface in enumerate(np.unique(ifaces).tolist()):
            indices = np.flatnonzero(partition.assignments == flow)
            morpher = self._morpher(iface)
            if morpher is None:
                sub = FusedPlan(np.zeros(len(indices), dtype=np.int64), 1)
            else:
                sub = morpher.fused_plan_columns(
                    times[indices], sizes[indices], directions[indices], label
                )
            flows.append((indices, sub))
        source, out_sizes, assignments = gather_flows(times, sizes, directions, flows)
        extra = sum(sub.extra_bytes for _, sub in flows)
        return FusedPlan(
            assignments,
            partition.n_flows,
            stages=(StageOverhead(self.name, extra, 0, (partition.n_flows,)),),
            source=source,
            sizes=out_sizes,
        )
