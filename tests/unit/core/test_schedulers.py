"""Tests for the concrete reshaping schedulers."""

import numpy as np
import pytest

from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.traffic.trace import Trace


def _assign(reshaper, trace):
    return reshaper.assign_columns(trace.times, trace.sizes, trace.directions)


@pytest.fixture
def mixed_trace():
    return Trace.from_arrays(
        times=np.linspace(0.0, 9.0, 10),
        sizes=[100, 200, 500, 1000, 1550, 1576, 150, 700, 1545, 1200],
        directions=[0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    )


class TestRandomReshaper:
    def test_indices_in_range(self, mixed_trace):
        reshaper = RandomReshaper(interfaces=3, seed=1)
        assert set(_assign(reshaper, mixed_trace)) <= {0, 1, 2}

    def test_reset_restores_stream(self, mixed_trace):
        reshaper = RandomReshaper(interfaces=3, seed=1)
        first = [reshaper.assign_packet(0.0, 100, 0) for _ in range(10)]
        reshaper.reset()
        assert first == [reshaper.assign_packet(0.0, 100, 0) for _ in range(10)]
        assert first == list(_assign(reshaper, mixed_trace))

    def test_roughly_uniform(self):
        trace = Trace.from_arrays(np.arange(3000) * 0.001, np.full(3000, 100))
        counts = np.bincount(_assign(RandomReshaper(3, seed=2), trace), minlength=3)
        assert counts.min() > 800

    def test_rejects_zero_interfaces(self):
        with pytest.raises(ValueError):
            RandomReshaper(interfaces=0)


class TestRoundRobin:
    def test_per_direction_rotation(self, mixed_trace):
        reshaper = RoundRobinReshaper(interfaces=3)
        out = _assign(reshaper, mixed_trace)
        down = out[mixed_trace.directions == 0]
        up = out[mixed_trace.directions == 1]
        assert list(down) == [0, 1, 2, 0, 1]
        assert list(up) == [0, 1, 2, 0, 1]

    def test_online_matches_batch(self, mixed_trace):
        online = RoundRobinReshaper(interfaces=3)
        batch = RoundRobinReshaper(interfaces=3)
        one_by_one = [
            online.assign_packet(
                float(mixed_trace.times[i]),
                int(mixed_trace.sizes[i]),
                int(mixed_trace.directions[i]),
            )
            for i in range(len(mixed_trace))
        ]
        assert one_by_one == list(_assign(batch, mixed_trace))

    def test_reset(self):
        reshaper = RoundRobinReshaper(interfaces=3)
        assert [reshaper.assign_packet(0.0, 100, 0) for _ in range(2)] == [0, 1]
        reshaper.reset()
        assert reshaper.assign_packet(0.0, 100, 0) == 0


class TestOrthogonalReshaper:
    def test_paper_default_ranges(self, mixed_trace):
        reshaper = OrthogonalReshaper.paper_default()
        out = _assign(reshaper, mixed_trace)
        # sizes: 100,200 -> 0; 500,1000,700,1200,1540-  -> 1; >1540 -> 2
        expected = [0, 0, 1, 1, 2, 2, 0, 1, 2, 1]
        assert list(out) == expected

    def test_online_matches_batch(self, mixed_trace):
        reshaper = OrthogonalReshaper.paper_default()
        online = [
            reshaper.assign_packet(0.0, int(s), 0) for s in mixed_trace.sizes
        ]
        assert online == list(_assign(reshaper, mixed_trace))

    def test_interfaces_property(self):
        assert OrthogonalReshaper.paper_default(5).interfaces == 5

    def test_boundaries_exposed(self):
        assert OrthogonalReshaper.paper_default().boundaries == (232, 1540, 1576)

    def test_fig4_example(self):
        # Fig. 4: ranges (0,525], (525,1050], (1050,1576].
        reshaper = OrthogonalReshaper.from_boundaries((525, 1050, 1576))
        assert reshaper.assign_packet(0.0, 400, 0) == 0
        assert reshaper.assign_packet(0.0, 800, 0) == 1
        assert reshaper.assign_packet(0.0, 1500, 0) == 2


class TestModuloReshaper:
    def test_matches_paper_formula(self, mixed_trace):
        # Fig. 5: i = L(s_k) mod I.
        reshaper = ModuloReshaper(interfaces=3)
        out = _assign(reshaper, mixed_trace)
        assert list(out) == [int(s) % 3 for s in mixed_trace.sizes]

    def test_online_matches_batch(self, mixed_trace):
        reshaper = ModuloReshaper(interfaces=3)
        online = [reshaper.assign_packet(0.0, int(s), 0) for s in mixed_trace.sizes]
        assert online == list(_assign(reshaper, mixed_trace))


class TestFrequencyHopping:
    def test_footnote2_configuration(self):
        scheduler = FrequencyHoppingScheduler()
        assert scheduler.channels == (1, 6, 11)
        assert scheduler.dwell == 0.5

    def test_slot_rotation(self):
        scheduler = FrequencyHoppingScheduler(dwell=0.5)
        times = np.array([0.0, 0.4, 0.5, 1.0, 1.5, 2.9])
        assert list(scheduler.slot_of(times)) == [0, 0, 1, 2, 0, 2]

    def test_channel_of(self):
        scheduler = FrequencyHoppingScheduler(dwell=0.5)
        assert list(scheduler.channel_of(np.array([0.0, 0.5, 1.0]))) == [1, 6, 11]

    def test_reshape_stamps_channels(self, mixed_trace):
        reshaped = FrequencyHoppingScheduler(dwell=0.5).reshape(mixed_trace)
        assert set(reshaped.channels.tolist()) <= {1, 6, 11}

    def test_rejects_bad_dwell(self):
        with pytest.raises(ValueError):
            FrequencyHoppingScheduler(dwell=0.0)
