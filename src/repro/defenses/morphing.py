"""Traffic morphing (Wright et al., NDSS 2009), as used in Sec. IV-D.

Morphing rewrites each packet's size so that the flow's size
distribution matches a *target application's* distribution.  The
morphing matrix is :func:`monotone_coupling`, the comonotone
(inverse-CDF) optimal transport plan between the source and target size
distributions.  On the real line with convex transport cost this
coupling is the minimum-cost plan, so it stands in for Wright's
overhead-minimizing morphing matrix (a linear program over the two
alphabets) while scaling to byte-granular alphabets.

When the sampled target size is *smaller* than the packet, the packet
is fragmented into ceil(size / target)-sized chunks, each carrying its
own MAC header (fragmentation is how a real morpher must shrink
packets; the extra headers are charged as overhead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.defenses.base import DefendedTraffic, Scheme
from repro.mac.frames import FRAME_HEADER_BYTES
from repro.traffic.packet import Direction
from repro.traffic.trace import Trace
from repro.util.rng import derive_rng

__all__ = [
    "monotone_coupling",
    "MorphingMatrix",
    "TrafficMorphing",
]


def _empirical_distribution(sizes: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Probability vector of ``sizes`` over ``support`` (sorted unique values)."""
    index = np.searchsorted(support, sizes)
    counts = np.bincount(index, minlength=len(support)).astype(float)
    return counts / counts.sum()


def monotone_coupling(
    source_sizes: np.ndarray,
    target_sizes: np.ndarray,
) -> "MorphingMatrix":
    """Comonotone coupling between two empirical size distributions.

    Sorts both supports and matches CDF mass in order — the classic
    optimal-transport plan on the line.
    """
    source_support = np.unique(np.asarray(source_sizes, dtype=np.int64))
    target_support = np.unique(np.asarray(target_sizes, dtype=np.int64))
    p = _empirical_distribution(np.asarray(source_sizes, dtype=np.int64), source_support)
    q = _empirical_distribution(np.asarray(target_sizes, dtype=np.int64), target_support)

    plan = np.zeros((len(source_support), len(target_support)), dtype=float)
    i = j = 0
    remaining_p = p[0]
    remaining_q = q[0]
    while True:
        mass = min(remaining_p, remaining_q)
        plan[i, j] += mass
        remaining_p -= mass
        remaining_q -= mass
        if remaining_p <= 1e-15:
            i += 1
            if i == len(source_support):
                break
            remaining_p = p[i]
        if remaining_q <= 1e-15:
            j += 1
            if j == len(target_support):
                break
            remaining_q = q[j]
    return MorphingMatrix(source_support, target_support, plan)


@dataclass(frozen=True)
class MorphingMatrix:
    """A transport plan between source and target size distributions.

    ``plan[i, j]`` is the joint probability of (source size i → target
    size j); rows normalize to the conditional morphing distribution.
    """

    source_support: np.ndarray
    target_support: np.ndarray
    plan: np.ndarray

    def conditional(self) -> np.ndarray:
        """Row-normalized plan: P(target j | source i)."""
        rows = self.plan.sum(axis=1, keepdims=True)
        safe = np.maximum(rows, 1e-300)
        return self.plan / safe

    def expected_target_mean(self) -> float:
        """Mean packet size after morphing (before fragmentation effects)."""
        return float((self.plan * self.target_support[None, :]).sum())

    def transport_cost(self) -> float:
        """Expected |target − source| byte distance of the plan."""
        distance = np.abs(
            self.target_support[None, :].astype(float)
            - self.source_support[:, None].astype(float)
        )
        return float((self.plan * distance).sum())

    def sample_targets(self, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw a morphed size for each packet in ``sizes`` (vectorized)."""
        conditional = self.conditional()
        indices = np.searchsorted(self.source_support, np.asarray(sizes, dtype=np.int64))
        indices = np.clip(indices, 0, len(self.source_support) - 1)
        out = np.empty(len(sizes), dtype=np.int64)
        cumulative = np.cumsum(conditional, axis=1)
        draws = rng.random(len(sizes))
        # Group packets by source-support row (one stable sort, bounds
        # from the row counts) so each row's inverse-CDF sampling is one
        # vectorized searchsorted.
        order = np.argsort(indices, kind="stable")
        counts = np.bincount(indices, minlength=len(self.source_support))
        bounds = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        for row in np.flatnonzero(np.diff(bounds)).tolist():
            members = order[bounds[row] : bounds[row + 1]]
            columns = np.searchsorted(cumulative[row], draws[members], side="right")
            columns = np.minimum(columns, len(self.target_support) - 1)
            out[members] = self.target_support[columns]
        return out


class TrafficMorphing(Scheme):
    """Morph a trace's data direction to look like a target application.

    Args:
        target_trace: a trace of the application to imitate (only its
            data-direction sizes are used).
        data_direction: which direction of the *source* carries payload
            (defaults to downlink; Table VI morphs the data direction).
        morph_all_packets: morph both directions instead of just the
            data direction — used when morphing a reshaped sub-flow,
            where the data/ack split no longer applies (Sec. V-C).
        seed: randomness for sampling the conditional morphing law.
    """

    name = "morphing"

    def __init__(
        self,
        target_trace: Trace,
        data_direction: Direction | None = None,
        morph_all_packets: bool = False,
        seed: int = 0,
    ):
        self._target_trace = target_trace
        self._data_direction = data_direction
        self._morph_all = bool(morph_all_packets)
        self._seed = int(seed)

    def transform(self, trace: Trace) -> DefendedTraffic:
        """Morph ``trace`` toward the target's size distribution."""
        from repro.defenses.padding import data_direction_of

        target_direction = data_direction_of(self._target_trace.label)
        if self._morph_all:
            mask = np.ones(len(trace), dtype=bool)
        else:
            direction = self._data_direction or data_direction_of(trace.label)
            mask = trace.directions == int(direction)
        target_sizes = self._target_trace.direction_view(target_direction).sizes
        if not mask.any() or len(target_sizes) == 0:
            return DefendedTraffic(original=trace, flows={0: trace}, extra_bytes=0)

        source_sizes = trace.sizes[mask]
        coupling = monotone_coupling(source_sizes, target_sizes)
        rng = derive_rng(self._seed, "morphing", trace.label or "?")
        morphed_sizes = coupling.sample_targets(source_sizes, rng)

        # Pad-up packets emit one frame; shrink packets fragment into
        # ceil(size / (morphed - header)) frames of the morphed size,
        # each fragment paying a fresh MAC header.
        payload_capacity = np.maximum(morphed_sizes - FRAME_HEADER_BYTES, 1)
        fragments = np.where(
            morphed_sizes >= source_sizes,
            1,
            -(-source_sizes // payload_capacity),
        ).astype(np.int64)
        extra = int((fragments * morphed_sizes - source_sizes).sum())

        # One source index over the whole trace: each morphed packet
        # repeated once per fragment, every other packet once.  Within a
        # run of equal times morphed packets precede the others, each
        # group in source order; without ties that is source order.
        times = trace.times
        if (times[1:] == times[:-1]).any():
            order = np.lexsort((~mask, times))
        else:
            order = np.arange(len(times))
        copies = np.ones(len(times), dtype=np.int64)
        copies[mask] = fragments
        source = np.repeat(order, copies[order])

        sizes = trace.sizes.copy()
        sizes[mask] = morphed_sizes
        # Morphed fragments go out on interface 0 with no RSSI.
        ifaces = np.where(mask, np.int16(0), trace.ifaces)
        rssi = np.where(mask, np.float32(np.nan), trace.rssi)
        defended = Trace(
            times[source],
            sizes[source],
            trace.directions[source],
            ifaces[source],
            trace.channels[source],
            rssi[source],
            trace.label,
            {},
        )
        return DefendedTraffic(original=trace, flows={0: defended}, extra_bytes=extra)

    @staticmethod
    def paper_morph_pairs() -> dict[str, str]:
        """The morph mapping of Sec. IV-D.

        "we morph chatting to be gaming, disguise gaming as browsing,
        simulate browsing as BT, make BT look like online video, pad
        video to be downloading"; downloading and uploading are left
        unmorphed (already at / near l_max in their data direction).
        """
        return {
            "chatting": "gaming",
            "gaming": "browsing",
            "browsing": "bittorrent",
            "bittorrent": "video",
            "video": "downloading",
        }
