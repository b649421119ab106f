"""Pseudonym baseline: periodic MAC address changes.

Sec. II-B: pseudonym schemes (Gruteser & Grunwald; Jiang et al.)
"randomly change the MAC address of a user, so that [the] adversary
cannot track the entire traffic stream", but "only change MAC addresses
each session or when idle, [so] all the packets sent under one pseudonym
are still linkable".  The defense therefore partitions traffic at a
coarse *temporal* granularity (one flow per pseudonym epoch) without
altering any packet features inside an epoch — which is exactly why it
fails against per-window classification.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import DefendedTraffic, FusedPlan, Scheme, StageOverhead
from repro.traffic.trace import Trace
from repro.util.validation import require_positive

__all__ = ["PseudonymDefense"]


class PseudonymDefense(Scheme):
    """Split a trace into per-pseudonym epochs.

    Args:
        epoch: seconds between MAC address changes (a "session" length);
            the paper's criticism applies for any epoch much longer than
            the eavesdropping window W.
    """

    name = "pseudonym"

    def __init__(self, epoch: float = 300.0):
        require_positive(epoch, "epoch")
        self.epoch = float(epoch)

    def _epochs(self, times: np.ndarray) -> np.ndarray:
        """The pseudonym epoch of each packet time (the first opens epoch 0).

        Epoch ids become int16 interface ids, so a trace may span at
        most 32,768 epochs; beyond that ids would wrap around and merge
        epochs far apart into one flow.
        """
        start = float(times[0]) if len(times) else 0.0
        epochs = np.floor((times - start) / self.epoch)
        limit = int(np.iinfo(np.int16).max) + 1
        if len(epochs) and epochs[-1] >= limit:
            raise ValueError(
                f"pseudonym epoch {self.epoch:g} s splits the trace into "
                f"{int(epochs[-1]) + 1} epochs; at most {limit} fit the "
                "int16 interface ids"
            )
        return epochs.astype(np.int16)

    def transform(self, trace: Trace) -> DefendedTraffic:
        """Assign each packet to the pseudonym active at its timestamp."""
        relabeled = trace.with_ifaces(self._epochs(trace.times))
        return DefendedTraffic(original=trace, flows=relabeled.split_by_iface())

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        """Epoch partitioning as a plan (the same epochs as ``transform``)."""
        plan = FusedPlan.from_assignments(self._epochs(times))
        return plan.with_stages((StageOverhead(self.name, 0, 0, (plan.n_flows,)),))
