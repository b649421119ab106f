"""Data-driven boundary selection for OR (Sec. III-C-3 parameter selection).

The paper fixes the size ranges by inspecting the corpus ("we observe
that the main packet size of each application is distributed around two
ranges ... so we can divide the packet size into three ranges").  This
module automates that observation: :class:`QuantileBoundaryReshaper`
learns range boundaries from a calibration window of the user's own
traffic (equal-mass quantiles), so each virtual interface carries a
comparable share of packets regardless of the application mix.

The paper also notes parameters "can be adjusted dynamically according
to the privacy requirement and the resource availability";
:meth:`QuantileBoundaryReshaper.refit` supports exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Reshaper
from repro.core.schedulers import OrthogonalReshaper
from repro.core.targets import orthogonal_targets
from repro.traffic.sizes import MAX_PACKET_SIZE
from repro.traffic.trace import Trace
from repro.util.validation import require

__all__ = ["quantile_boundaries", "QuantileBoundaryReshaper"]


def quantile_boundaries(sizes: np.ndarray, interfaces: int) -> tuple[int, ...]:
    """Equal-mass size boundaries: interface i gets ~1/I of the packets.

    The last boundary is always ``MAX_PACKET_SIZE`` so every packet maps
    to a range.  Duplicate quantiles (very peaked distributions) are
    nudged apart to keep the boundaries strictly increasing.
    """
    require(interfaces >= 1, "interfaces must be >= 1")
    sizes = np.asarray(sizes)
    require(len(sizes) > 0, "need calibration packets to fit boundaries")
    quantiles = np.quantile(sizes, [i / interfaces for i in range(1, interfaces)])
    boundaries: list[int] = []
    previous = 0
    for value in quantiles:
        edge = max(int(np.ceil(value)), previous + 1)
        boundaries.append(edge)
        previous = edge
    last = max(MAX_PACKET_SIZE, previous + 1)
    boundaries.append(last)
    return tuple(boundaries)


class QuantileBoundaryReshaper(Reshaper):
    """OR whose range boundaries are fit to the user's own traffic.

    >>> import numpy as np
    >>> from repro.traffic.trace import Trace
    >>> calibration = Trace.from_arrays(
    ...     np.arange(6) * 0.1, [100, 200, 300, 400, 500, 600])
    >>> reshaper = QuantileBoundaryReshaper.fit(calibration, interfaces=3)
    >>> len(reshaper.boundaries)
    3
    """

    def __init__(self, boundaries: tuple[int, ...]):
        self._inner = OrthogonalReshaper(orthogonal_targets(boundaries))

    @classmethod
    def fit(cls, calibration: Trace, interfaces: int = 3) -> "QuantileBoundaryReshaper":
        """Fit boundaries from a calibration trace."""
        return cls(quantile_boundaries(calibration.sizes, interfaces))

    @property
    def boundaries(self) -> tuple[int, ...]:
        """The fitted range boundaries."""
        return self._inner.boundaries

    @property
    def interfaces(self) -> int:
        return self._inner.interfaces

    def refit(self, calibration: Trace) -> "QuantileBoundaryReshaper":
        """Return a new reshaper re-fit to fresher traffic (dynamic tuning)."""
        return QuantileBoundaryReshaper.fit(calibration, self.interfaces)

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        return self._inner.assign_packet(time, size, direction)

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        return self._inner.assign_columns(times, sizes, directions)
