"""Reset-semantics column assignment (`Reshaper.assign_columns`).

The fused evaluation path never constructs a Trace, so each scheduler
must reproduce — bit for bit — what a freshly reset instance emits
packet by packet, from raw columns alone.  Statefulness is the trap:
``assign_columns`` must ignore accumulated online state (that's what
"reset semantics" means).
"""

import numpy as np
import pytest

from repro.core.adaptive import QuantileBoundaryReshaper
from repro.core.base import Reshaper
from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.core.target_driven import TargetDrivenReshaper
from repro.core.targets import TargetDistribution
from repro.traffic.trace import Trace


def make_trace(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return Trace.from_arrays(
        np.sort(rng.uniform(0.0, 30.0, n)),
        rng.integers(1, 1577, n),
        directions=rng.choice([0, 1], n),
    )


def per_packet(reshaper, trace):
    """Reference assignment: reset, then replay packet by packet."""
    reshaper.reset()
    return np.array(
        [
            reshaper.assign_packet(
                float(trace.times[k]), int(trace.sizes[k]), int(trace.directions[k])
            )
            for k in range(len(trace))
        ],
        dtype=np.int16,
    )


def schedulers():
    calibration = make_trace(seed=3)
    targets = TargetDistribution((800, 1576), np.array([[0.6, 0.4], [0.4, 0.6]]))
    return [
        RandomReshaper(interfaces=3, seed=7),
        RoundRobinReshaper(interfaces=3),
        OrthogonalReshaper.paper_default(3),
        ModuloReshaper(interfaces=4),
        FrequencyHoppingScheduler(),
        QuantileBoundaryReshaper.fit(calibration, interfaces=3),
        TargetDrivenReshaper(targets),
    ]


class TestAssignColumnsBitIdentity:
    @pytest.mark.parametrize(
        "reshaper", schedulers(), ids=lambda r: type(r).__name__
    )
    def test_matches_reset_per_packet_replay(self, reshaper):
        trace = make_trace()
        reference = per_packet(reshaper, trace)
        vectorized = reshaper.assign_columns(
            trace.times, trace.sizes, trace.directions
        )
        assert vectorized.dtype == reference.dtype
        np.testing.assert_array_equal(vectorized, reference)

    @pytest.mark.parametrize(
        "reshaper", schedulers(), ids=lambda r: type(r).__name__
    )
    def test_ignores_accumulated_state(self, reshaper):
        """Columns answer as a *fresh* scheduler even after online use."""
        trace = make_trace()
        reference = per_packet(reshaper, trace)
        # Poison any online state, then ask again at the column level.
        for k in range(17):
            reshaper.assign_packet(time=float(k), size=100 + k, direction=k % 2)
        vectorized = reshaper.assign_columns(
            trace.times, trace.sizes, trace.directions
        )
        np.testing.assert_array_equal(vectorized, reference)

    @pytest.mark.parametrize(
        "reshaper", schedulers(), ids=lambda r: type(r).__name__
    )
    def test_empty_columns(self, reshaper):
        out = reshaper.assign_columns(
            np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)
        )
        assert len(out) == 0

    def test_default_replays_assign_packet(self):
        """Schedulers without a closed form get a reset + per-packet replay."""

        class Alternating(Reshaper):
            def __init__(self):
                self.sent = 0

            @property
            def interfaces(self):
                return 2

            def assign_packet(self, time, size, direction):
                self.sent += 1
                return self.sent % 2

            def reset(self):
                self.sent = 0

        reshaper = Alternating()
        reshaper.assign_packet(0.0, 100, 0)
        trace = make_trace(n=5)
        out = reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
        assert out.dtype == np.int16
        assert list(out) == [1, 0, 1, 0, 1]


class TestTargetDrivenIncrementalDeviation:
    """The cached-deviation batch loop is bit-identical to per-packet replay."""

    def _targets(self):
        matrix = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.3, 0.4, 0.3]])
        return TargetDistribution((500, 1000, 1576), matrix)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_assign_columns_matches_per_packet_replay(self, seed):
        trace = make_trace(n=300, seed=seed)
        batch = TargetDrivenReshaper(self._targets())
        online = TargetDrivenReshaper(self._targets())
        one_by_one = [
            online.assign_packet(
                float(trace.times[k]), int(trace.sizes[k]), int(trace.directions[k])
            )
            for k in range(len(trace))
        ]
        np.testing.assert_array_equal(
            batch.assign_columns(trace.times, trace.sizes, trace.directions),
            one_by_one,
        )
        np.testing.assert_array_equal(batch._counts, online._counts)
