"""Reshaper interface and its :class:`~repro.defenses.base.Scheme` adapter.

A reshaper realizes the scheduling function of Sec. III-C-1:
``F(s_k) = i, i in [1, I]`` (0-based here).  Two operating modes are
supported:

* **online** — :meth:`Reshaper.assign_packet` is called per packet by
  the client driver / AP data plane inside the discrete-event simulator;
* **batch** — :meth:`Reshaper.assign_columns` maps a whole trace's
  columns at once, as a freshly reset scheduler would, which is how the
  trace-driven evaluation pipeline runs.

Subclasses must keep the two modes consistent: ``assign_columns`` must
produce the same assignment a reset followed by a per-packet replay
would (this is asserted by property tests).

:class:`ReshaperScheme` is the one adapter between a scheduler and the
defense contract: it splits the reshaped trace into the per-interface
flows an eavesdropper captures and charges the only overhead reshaping
has — the configuration messages (Sec. V-B: "The only message overhead
introduced by traffic reshaping is for configuring virtual
interfaces").
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.optimization import verify_partition
from repro.defenses.base import DefendedTraffic, FusedPlan, Scheme, StageOverhead
from repro.traffic.trace import Trace

__all__ = ["CONFIG_MESSAGE_BYTES", "Reshaper", "ReshaperScheme"]

#: Size of one configuration-protocol message on the wire (request or
#: reply payload + frame overhead); measured from the protocol encoding.
CONFIG_MESSAGE_BYTES = 196

#: Fig. 2 handshake cost of one association: a request plus a reply.
_HANDSHAKE_BYTES = 2 * CONFIG_MESSAGE_BYTES


class Reshaper(abc.ABC):
    """Maps packets to virtual interfaces."""

    @property
    @abc.abstractmethod
    def interfaces(self) -> int:
        """Number of virtual interfaces I."""

    @abc.abstractmethod
    def assign_packet(self, time: float, size: int, direction: int) -> int:
        """Online mode: return the interface index for one packet."""

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        """Batch mode: an int16 interface index per packet.

        Returns what a freshly reset scheduler assigns, straight off the
        source columns — no :class:`Trace` needed, so it works on
        ``TraceStore`` memmap column slices as-is.  The default resets
        and replays packets through :meth:`assign_packet`; vectorizable
        subclasses override it with a closed form.
        """
        self.reset()
        return np.array(
            [
                self.assign_packet(time=time, size=size, direction=direction)
                for time, size, direction in zip(
                    np.asarray(times).tolist(),
                    np.asarray(sizes).tolist(),
                    np.asarray(directions).tolist(),
                )
            ],
            dtype=np.int16,
        )

    def reset(self) -> None:
        """Clear any online state (per-direction counters etc.)."""

    def reshape(self, trace: Trace) -> Trace:
        """``trace`` with a freshly reset scheduler's assignments applied."""
        return trace.with_ifaces(
            self.assign_columns(trace.times, trace.sizes, trace.directions)
        )


class ReshaperScheme(Scheme):
    """Any :class:`Reshaper` as a :class:`~repro.defenses.base.Scheme`.

    ``transform`` reshapes the trace (scheduler state reset), verifies
    the partition invariant, and splits it into per-interface flows;
    the stage's ``handshake_bytes`` are the Fig. 2 configuration
    exchange — one request and one reply per association.
    """

    def __init__(self, name: str, reshaper: Reshaper):
        self.name = str(name)
        self._reshaper = reshaper

    @property
    def reshaper(self) -> Reshaper:
        return self._reshaper

    def reset(self) -> None:
        self._reshaper.reset()

    def transform(self, trace: Trace) -> DefendedTraffic:
        reshaped = self._reshaper.reshape(trace)
        verify_partition(trace, reshaped)
        return DefendedTraffic(
            original=trace,
            flows=reshaped.split_by_iface(),
            handshake_bytes=_HANDSHAKE_BYTES,
        )

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        plan = FusedPlan.from_assignments(
            self._reshaper.assign_columns(times, sizes, directions)
        )
        return plan.with_stages(
            (StageOverhead(self.name, 0, _HANDSHAKE_BYTES, (plan.n_flows,)),)
        )
