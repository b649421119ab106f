"""Greedy online scheduler for arbitrary (non-orthogonal) targets.

The paper's Eq. 1 admits any target matrix φ, but only solves it in
closed form for the orthogonal case.  This module implements the general
case as a greedy online rule — assign each packet to the interface whose
empirical distribution moves closest to its target — so users can
realize targets like "make interface 0 look like chatting and interface
1 look like downloading" (Sec. III-C-2: "different reshaping algorithms
over multiple virtual wireless interfaces can be designed to achieve
different target distributions").

The greedy rule is 1-step optimal: it minimizes the Eq. 1 objective of
the prefix after each packet, and property tests check it never does
worse than RA on the final objective.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Reshaper
from repro.core.targets import TargetDistribution

__all__ = ["TargetDrivenReshaper"]


class TargetDrivenReshaper(Reshaper):
    """Assigns each packet to the interface that most wants its size range.

    For each candidate interface i the scheduler computes the *change*
    in the Eq. 1 objective if i took the packet — the post-assignment
    deviation ‖φⁱ − pⁱ‖₂ minus the current one (other interfaces'
    terms are unaffected) — and takes the argmin.  Ties break toward
    the interface with fewer packets so load stays spread.
    """

    def __init__(self, targets: TargetDistribution):
        self._targets = targets
        self._counts = np.zeros((targets.interfaces, targets.ranges), dtype=np.int64)

    @property
    def targets(self) -> TargetDistribution:
        """The target matrix φ being chased."""
        return self._targets

    @property
    def interfaces(self) -> int:
        return self._targets.interfaces

    def reset(self) -> None:
        self._counts[:] = 0

    def _current_deviation(self, iface: int) -> float:
        counts = self._counts[iface].astype(float)
        total = counts.sum()
        if total == 0:
            # An idle interface contributes the full ‖φⁱ‖ to the
            # objective (its empirical row is all-zero), so sending it a
            # matching packet earns a large reduction — this is what
            # spreads load across interfaces.
            return float(np.linalg.norm(self._targets.matrix[iface]))
        return float(np.linalg.norm(self._targets.matrix[iface] - counts / total))

    def _deviation_if_assigned(self, iface: int, range_index: int) -> float:
        counts = self._counts[iface].astype(float).copy()
        counts[range_index] += 1
        p = counts / counts.sum()
        return float(np.linalg.norm(self._targets.matrix[iface] - p))

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        range_index = int(self._targets.range_of(np.asarray([size]))[0])
        best_iface, best_key = 0, None
        for iface in range(self.interfaces):
            delta = self._deviation_if_assigned(iface, range_index) - (
                self._current_deviation(iface)
            )
            load = int(self._counts[iface].sum())
            key = (delta, load)
            if best_key is None or key < best_key:
                best_iface, best_key = iface, key
        self._counts[best_iface, range_index] += 1
        return best_iface

    def achieved_distributions(self) -> np.ndarray:
        """Empirical pⁱⱼ accumulated so far (zero rows for idle interfaces)."""
        totals = self._counts.sum(axis=1, keepdims=True)
        safe = np.maximum(totals, 1)
        p = self._counts / safe
        p[totals[:, 0] == 0] = 0.0
        return p

    def objective(self) -> float:
        """Current Eq. 1 objective over the packets seen so far."""
        p = self.achieved_distributions()
        return float(np.sqrt(((self._targets.matrix - p) ** 2).sum(axis=1)).sum())

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        # The greedy recurrence is inherently sequential (each decision
        # feeds the next), but the per-packet work need not rescan every
        # interface's history: only the winner's deviation and load
        # change, and its new deviation is exactly the candidate value
        # already computed when scoring it (`_deviation_if_assigned`
        # evaluates the same float expression `_current_deviation` would
        # after the increment), so caching both is bit-identical to the
        # recompute-everything loop the per-packet oracle runs.
        self.reset()
        range_indices = self._targets.range_of(np.asarray(sizes))
        out = np.empty(len(range_indices), dtype=np.int16)
        current = [self._current_deviation(iface) for iface in range(self.interfaces)]
        loads = [int(self._counts[iface].sum()) for iface in range(self.interfaces)]
        for position, range_index in enumerate(range_indices):
            best_iface, best_key, best_deviation = 0, None, 0.0
            for iface in range(self.interfaces):
                candidate = self._deviation_if_assigned(iface, int(range_index))
                key = (candidate - current[iface], loads[iface])
                if best_key is None or key < best_key:
                    best_iface, best_key, best_deviation = iface, key, candidate
            self._counts[best_iface, range_index] += 1
            current[best_iface] = best_deviation
            loads[best_iface] += 1
            out[position] = best_iface
        return out
