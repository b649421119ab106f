"""Concrete reshaping schedulers: RA, RR, OR (ranges and modulo), FH.

The evaluation (Sec. IV) compares four schedulers over virtual
interfaces plus the undefended original:

* **RA** — Random Algorithm: each packet goes to a uniformly random
  interface.
* **RR** — Round-Robin: packet k goes to interface ``k mod I``.
* **OR** — Orthogonal Reshaping: packets are hashed by size so that the
  per-interface size distributions are pairwise orthogonal.  Two hash
  families appear in the paper: by size *range* (Fig. 4; also the
  default for Tables I-V) and by size *modulo* ``i = L(s_k) mod I``
  (Fig. 5).
* **FH** — frequency hopping over channels 1, 6, 11 with a 500 ms dwell
  (footnote 2): not a packet scheduler proper, but it partitions traffic
  into per-channel time slices, which the eavesdropper sees as separate
  flows.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Reshaper
from repro.core.targets import TargetDistribution, orthogonal_targets, paper_ranges
from repro.traffic.trace import Trace
from repro.util.rng import derive_rng
from repro.util.validation import require

__all__ = [
    "RandomReshaper",
    "RoundRobinReshaper",
    "OrthogonalReshaper",
    "ModuloReshaper",
    "FrequencyHoppingScheduler",
]


class RandomReshaper(Reshaper):
    """RA: ``i = random[1, I]`` per packet (Sec. III-C-1)."""

    def __init__(self, interfaces: int = 3, seed: int = 0):
        require(interfaces >= 1, "interfaces must be >= 1")
        self._interfaces = int(interfaces)
        self._seed = int(seed)
        self._rng = derive_rng(seed, "reshaper", "random")

    @property
    def interfaces(self) -> int:
        return self._interfaces

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        return int(self._rng.integers(0, self._interfaces))

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        # A fresh derivation replays the post-reset stream: the first
        # ``n`` draws are exactly what reset() + per-packet draws emit.
        rng = derive_rng(self._seed, "reshaper", "random")
        return rng.integers(0, self._interfaces, size=len(times)).astype(np.int16)

    def reset(self) -> None:
        self._rng = derive_rng(self._seed, "reshaper", "random")


class RoundRobinReshaper(Reshaper):
    """RR: ``i = k mod I`` with an independent counter per direction.

    Separate counters keep the uplink and downlink rotations independent,
    matching a deployment where the client and the AP each run their own
    scheduler instance (Sec. III-C-1).
    """

    def __init__(self, interfaces: int = 3):
        require(interfaces >= 1, "interfaces must be >= 1")
        self._interfaces = int(interfaces)
        self._counters = [0, 0]

    @property
    def interfaces(self) -> int:
        return self._interfaces

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        direction = int(direction) & 1
        index = self._counters[direction] % self._interfaces
        self._counters[direction] += 1
        return index

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        # The same lane folding as assign_packet: any direction value
        # lands on counter 0 or 1.
        lanes = np.asarray(directions) & 1
        out = np.empty(len(times), dtype=np.int16)
        for lane in (0, 1):
            mask = lanes == lane
            out[mask] = np.arange(int(mask.sum())) % self._interfaces
        return out

    def reset(self) -> None:
        self._counters = [0, 0]


class OrthogonalReshaper(Reshaper):
    """OR by size ranges: interface i carries the packets of range i.

    With orthogonal targets and L = I the online optimization of Eq. 1
    is solved exactly (pⁱⱼ = φⁱⱼ) without knowing future traffic: the
    scheduler is the hash ``F(s_k) = range(L(s_k))`` (Sec. III-C-2).

    >>> reshaper = OrthogonalReshaper.paper_default()
    >>> reshaper.assign_packet(time=0.0, size=150, direction=0)
    0
    >>> reshaper.assign_packet(time=0.0, size=1576, direction=0)
    2
    """

    def __init__(self, targets: TargetDistribution):
        owners = targets.owning_interface()  # validates orthogonality
        self._targets = targets
        self._owners = owners

    @classmethod
    def from_boundaries(cls, boundaries: tuple[int, ...]) -> "OrthogonalReshaper":
        """OR with identity targets over ``boundaries``."""
        return cls(orthogonal_targets(boundaries))

    @classmethod
    def paper_default(cls, interfaces: int = 3) -> "OrthogonalReshaper":
        """The paper's evaluation configuration for I ∈ {2, 3, 5}."""
        return cls.from_boundaries(paper_ranges(interfaces))

    @property
    def targets(self) -> TargetDistribution:
        """The target distribution φ this scheduler realizes."""
        return self._targets

    @property
    def interfaces(self) -> int:
        return self._targets.interfaces

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Upper edges of the size ranges."""
        return self._targets.boundaries

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        range_index = int(self._targets.range_of(np.asarray([size]))[0])
        return int(self._owners[range_index])

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        return self._owners[self._targets.range_of(np.asarray(sizes))].astype(np.int16)


class ModuloReshaper(Reshaper):
    """OR by size modulo: ``i = L(s_k) mod I`` (Fig. 5).

    Sets L = l_max so each interface receives a comb of sizes spanning
    the full range — "a good property to prevent adversaries from
    telling if the traffic reshaping technique is being used"
    (Sec. III-C-2).
    """

    def __init__(self, interfaces: int = 3):
        require(interfaces >= 1, "interfaces must be >= 1")
        self._interfaces = int(interfaces)

    @property
    def interfaces(self) -> int:
        return self._interfaces

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        return int(size) % self._interfaces

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        return (np.asarray(sizes) % self._interfaces).astype(np.int16)


class FrequencyHoppingScheduler(Reshaper):
    """FH baseline: channel hopping with a fixed dwell (footnote 2).

    Channels are visited round-robin (default 1, 6, 11) for
    ``dwell`` seconds each.  The time axis is what partitions the
    traffic: the "interface" index is the channel slot active when the
    packet is sent, so each index corresponds to everything an
    eavesdropper camped on that channel would capture.
    """

    def __init__(self, channels: tuple[int, ...] = (1, 6, 11), dwell: float = 0.5):
        require(len(channels) >= 1, "need at least one channel")
        require(dwell > 0, "dwell must be positive")
        self._channels = tuple(int(c) for c in channels)
        self._dwell = float(dwell)

    @property
    def interfaces(self) -> int:
        return len(self._channels)

    @property
    def channels(self) -> tuple[int, ...]:
        """The hopping sequence."""
        return self._channels

    @property
    def dwell(self) -> float:
        """Per-channel active period in seconds."""
        return self._dwell

    def slot_of(self, times: np.ndarray) -> np.ndarray:
        """Vectorized channel-slot index for each timestamp."""
        times = np.asarray(times, dtype=np.float64)
        return (np.floor(times / self._dwell) % len(self._channels)).astype(np.int16)

    def channel_of(self, times: np.ndarray) -> np.ndarray:
        """Vectorized channel number active at each timestamp."""
        return np.asarray(self._channels, dtype=np.int16)[self.slot_of(times)]

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        return int(self.slot_of(np.asarray([time]))[0])

    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        return self.slot_of(times)

    def reshape(self, trace: Trace) -> Trace:
        """Assign slots and stamp the per-packet channel numbers."""
        reshaped = super().reshape(trace)
        reshaped.channels = self.channel_of(trace.times).astype(np.int8)
        return reshaped
