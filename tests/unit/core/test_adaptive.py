"""Tests for quantile-based boundary selection."""

import numpy as np
import pytest

from repro.core.adaptive import QuantileBoundaryReshaper, quantile_boundaries
from repro.core.base import ReshaperScheme
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.sizes import MAX_PACKET_SIZE


class TestQuantileBoundaries:
    def test_strictly_increasing(self):
        sizes = np.array([100, 100, 100, 100, 100])  # degenerate
        boundaries = quantile_boundaries(sizes, 3)
        assert all(b2 > b1 for b1, b2 in zip(boundaries, boundaries[1:]))

    def test_last_boundary_covers_max(self):
        boundaries = quantile_boundaries(np.array([10, 20, 30]), 2)
        assert boundaries[-1] >= MAX_PACKET_SIZE

    def test_equal_mass_on_uniform_sizes(self):
        sizes = np.arange(1, 1501)
        boundaries = quantile_boundaries(sizes, 3)
        assert boundaries[0] == pytest.approx(500, abs=2)
        assert boundaries[1] == pytest.approx(1000, abs=2)

    def test_rejects_empty_calibration(self):
        with pytest.raises(ValueError):
            quantile_boundaries(np.array([]), 3)


class TestQuantileBoundaryReshaper:
    @pytest.fixture(scope="class")
    def bt(self):
        return TrafficGenerator(seed=71).generate(AppType.BITTORRENT, 60.0)

    def test_fit_and_partition(self, bt):
        reshaper = QuantileBoundaryReshaper.fit(bt, interfaces=3)
        result = ReshaperScheme("reshaper", reshaper).apply(bt)
        counts = [len(flow) for flow in result.flows.values()]
        # Equal-mass boundaries balance the interfaces far better than the
        # fixed paper ranges do on a bimodal flow.
        assert min(counts) > 0.1 * max(counts)
        assert sum(counts) == len(bt)

    def test_refit_adapts_to_new_traffic(self, bt):
        reshaper = QuantileBoundaryReshaper.fit(bt, interfaces=3)
        chat = TrafficGenerator(seed=72).generate(AppType.CHATTING, 60.0)
        refit = reshaper.refit(chat)
        assert refit.interfaces == 3
        assert refit.boundaries != reshaper.boundaries

    def test_online_matches_batch(self, bt):
        reshaper = QuantileBoundaryReshaper.fit(bt, interfaces=3)
        online = [
            reshaper.assign_packet(0.0, int(size), 0) for size in bt.sizes[:200]
        ]
        batch = reshaper.assign_columns(
            bt.times[:200], bt.sizes[:200], bt.directions[:200]
        )
        assert online == list(batch)
