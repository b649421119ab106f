"""Packet arrival processes.

Three arrival families cover the timing behaviour of the seven
applications the paper evaluates:

* :class:`ConstantRateArrivals` — near-CBR flows (downloading, online
  video, uploading): fixed mean interarrival with multiplicative gamma
  jitter, producing a "relatively stable data rate" (Sec. II-A).
* :class:`PoissonArrivals` — sparse memoryless flows (chatting, gaming
  ticks).
* :class:`BurstyArrivals` — ON/OFF flows (web browsing, BitTorrent
  piece exchange): idle periods separate bursts of back-to-back packets,
  giving the "bursty traffic" signature of browsing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_positive

__all__ = [
    "ArrivalProcess",
    "ConstantRateArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
]


class ArrivalProcess(abc.ABC):
    """Generates packet timestamps on [0, duration)."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, duration: float) -> np.ndarray:
        """Return a sorted float64 array of timestamps in [0, duration)."""

    @property
    @abc.abstractmethod
    def mean_interarrival(self) -> float:
        """Mean interarrival time implied by the process parameters."""

    @abc.abstractmethod
    def scaled(self, factor: float) -> "ArrivalProcess":
        """Return a copy with every time constant multiplied by ``factor``.

        Session-level rate variability (a fast or slow network day) is
        modeled by scaling a session's arrival process; ``factor > 1``
        slows the flow down.
        """

    def expected_count(self, duration: float) -> float:
        """Expected number of packets over ``duration`` seconds."""
        return duration / self.mean_interarrival


@dataclass(frozen=True)
class ConstantRateArrivals(ArrivalProcess):
    """Constant-bit-rate style arrivals with gamma-distributed jitter.

    Interarrival gaps are drawn from ``Gamma(shape, interval/shape)`` so
    the mean gap equals ``interval`` and the coefficient of variation is
    ``1/sqrt(shape)``; large ``shape`` approaches a strict CBR clock.
    """

    interval: float
    jitter_shape: float = 40.0

    def __post_init__(self) -> None:
        require_positive(self.interval, "interval")
        require_positive(self.jitter_shape, "jitter_shape")

    @property
    def mean_interarrival(self) -> float:
        return self.interval

    def scaled(self, factor: float) -> "ConstantRateArrivals":
        require_positive(factor, "factor")
        return ConstantRateArrivals(self.interval * factor, self.jitter_shape)

    def sample(self, rng: np.random.Generator, duration: float) -> np.ndarray:
        require_positive(duration, "duration")
        expected = int(duration / self.interval * 1.25) + 16
        times = rng.gamma(self.jitter_shape, self.interval / self.jitter_shape, expected)
        np.cumsum(times, out=times)
        while times[-1] < duration:
            extra = rng.gamma(self.jitter_shape, self.interval / self.jitter_shape, expected)
            times = np.concatenate([times, times[-1] + np.cumsum(extra)])
        return times[times < duration]


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals with exponential interarrival gaps."""

    interval: float

    def __post_init__(self) -> None:
        require_positive(self.interval, "interval")

    @property
    def mean_interarrival(self) -> float:
        return self.interval

    def scaled(self, factor: float) -> "PoissonArrivals":
        require_positive(factor, "factor")
        return PoissonArrivals(self.interval * factor)

    def sample(self, rng: np.random.Generator, duration: float) -> np.ndarray:
        require_positive(duration, "duration")
        expected = int(duration / self.interval * 1.5) + 16
        times = rng.exponential(self.interval, expected)
        np.cumsum(times, out=times)
        while times[-1] < duration:
            extra = rng.exponential(self.interval, expected)
            times = np.concatenate([times, times[-1] + np.cumsum(extra)])
        return times[times < duration]


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """ON/OFF bursts: idle gaps separating trains of back-to-back packets.

    A burst event occurs on average every ``burst_interval`` seconds
    (exponential).  Each burst carries a geometric number of packets with
    mean ``burst_size``, spaced ``within_gap`` seconds apart
    (exponential).  Browsing page loads and BitTorrent piece exchanges
    are both instances with different parameters.
    """

    burst_interval: float
    burst_size: float
    within_gap: float

    def __post_init__(self) -> None:
        require_positive(self.burst_interval, "burst_interval")
        require(self.burst_size >= 1, "burst_size must be >= 1")
        require_positive(self.within_gap, "within_gap")

    @property
    def mean_interarrival(self) -> float:
        # Average gap between consecutive packets across the whole trace:
        # each burst of B packets spans (B-1) within-gaps, and bursts are
        # burst_interval apart, so rate = B / burst_interval.
        return self.burst_interval / self.burst_size

    def scaled(self, factor: float) -> "BurstyArrivals":
        require_positive(factor, "factor")
        return BurstyArrivals(
            burst_interval=self.burst_interval * factor,
            burst_size=self.burst_size,
            within_gap=self.within_gap * factor,
        )

    def sample(self, rng: np.random.Generator, duration: float) -> np.ndarray:
        require_positive(duration, "duration")
        starts: list[np.ndarray] = []
        clock = float(rng.exponential(self.burst_interval))
        while clock < duration:
            count = 1 + rng.geometric(1.0 / self.burst_size)
            gaps = rng.exponential(self.within_gap, count - 1)
            burst_times = clock + np.concatenate([[0.0], np.cumsum(gaps)])
            starts.append(burst_times)
            clock += float(rng.exponential(self.burst_interval))
        if not starts:
            return np.zeros(0, dtype=np.float64)
        times = np.concatenate(starts)
        times.sort(kind="stable")
        return times[times < duration]
