"""Packet padding: the classical (and expensive) defense.

Sec. IV-D: "we pad all the packets to the maximum packet size (i.e.,
1576 bytes)".  The paper's per-application overheads match
``l_max / mean_size - 1`` of each application's *data-dominant
direction* (e.g. chatting: 1576/269.1 - 1 ≈ 485.7 %), so by default we
pad the data direction only — the uplink for uploading, the downlink
for every other application — and leave the sparse ack stream alone.
``pad_both_directions=True`` pads everything, for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.defenses.base import DefendedTraffic, FusedPlan, Scheme, StageOverhead
from repro.traffic.apps import AppType
from repro.traffic.packet import DOWNLINK, UPLINK, Direction
from repro.traffic.sizes import MAX_PACKET_SIZE
from repro.traffic.trace import Trace

__all__ = ["PacketPadding", "PadSizes", "data_direction_of"]


def data_direction_of(app: AppType | str | None) -> Direction:
    """The direction carrying an application's payload data.

    Uploading is "the only application which has low traffic in downlink
    but high traffic in uplink" (Sec. IV-C); everything else is
    downlink-dominant.  Unknown labels default to downlink.
    """
    if app is None:
        return DOWNLINK
    if isinstance(app, str):
        try:
            app = AppType(app)
        except ValueError:
            return DOWNLINK
    return UPLINK if app is AppType.UPLOADING else DOWNLINK


@dataclass(frozen=True)
class PadSizes:
    """Elementwise size rewrite of :class:`PacketPadding`.

    ``direction`` is the padded direction, or ``None`` for both.  The
    materializing ``transform`` and the fused plan both rewrite sizes
    through this one object, so their sizes are bit-identical.
    """

    pad_to: int
    direction: int | None

    def __call__(self, sizes: np.ndarray, directions: np.ndarray) -> np.ndarray:
        if self.direction is None:
            return np.maximum(sizes, self.pad_to)
        return np.where(
            np.asarray(directions) == self.direction,
            np.maximum(sizes, self.pad_to),
            sizes,
        )


class PacketPadding(Scheme):
    """Pad packets to a fixed length (default l_max = 1576 bytes)."""

    name = "padding"

    def __init__(
        self,
        pad_to: int = MAX_PACKET_SIZE,
        pad_both_directions: bool = False,
    ):
        if pad_to < 1:
            raise ValueError("pad_to must be positive")
        self.pad_to = int(pad_to)
        self.pad_both_directions = bool(pad_both_directions)

    def _padding(
        self, sizes: np.ndarray, directions: np.ndarray, label: str | None
    ) -> tuple[PadSizes, int]:
        """The size rewrite for a trace labelled ``label``, and its extra bytes."""
        direction = None if self.pad_both_directions else int(data_direction_of(label))
        # extra = sum over covered packets of max(0, pad_to - size),
        # computed maskwise so no gathered copy of the column is made.
        deficit = np.maximum(self.pad_to - np.asarray(sizes), 0)
        if direction is not None:
            deficit = np.where(np.asarray(directions) == direction, deficit, 0)
        return PadSizes(self.pad_to, direction), int(deficit.sum())

    def transform(self, trace: Trace) -> DefendedTraffic:
        """Pad the data direction (or both) of ``trace`` to ``pad_to`` bytes."""
        pad, extra = self._padding(trace.sizes, trace.directions, trace.label)
        defended = trace.with_sizes(pad(trace.sizes, trace.directions))
        return DefendedTraffic(original=trace, flows={0: defended}, extra_bytes=extra)

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        """Padding fuses trivially: one flow, an elementwise size rewrite."""
        pad, extra = self._padding(sizes, directions, label)
        return FusedPlan.from_assignments(
            np.zeros(len(sizes), dtype=np.int64),
            n_flows=1,
            size_transform=pad,
            stages=(StageOverhead(self.name, extra, 0, (1,)),),
        )
