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

from repro.core.base import Reshaper, ReshaperScheme
from repro.defenses.base import DefendedTraffic, Scheme
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

    def transform(self, trace: Trace) -> DefendedTraffic:
        """Reshape ``trace`` then morph the configured interfaces."""
        result = self._reshaping.transform(trace)
        flows: dict[int, Trace] = {}
        extra = 0
        for iface, flow in result.flows.items():
            target = self._interface_targets.get(iface)
            if target is None or len(flow) == 0:
                flows[iface] = flow
                continue
            morpher = TrafficMorphing(
                target_trace=target,
                morph_all_packets=self._morph_all,
                seed=self._seed + iface,
            )
            morphed = morpher.transform(flow)
            flows[iface] = morphed.observable_flows[0]
            extra += morphed.extra_bytes
        return DefendedTraffic(original=trace, flows=flows, extra_bytes=extra)
