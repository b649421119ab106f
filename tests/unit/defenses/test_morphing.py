"""Tests for traffic morphing."""

import numpy as np
import pytest

from oracles import morphing as morphing_oracle
from oracles.morphing import morphing_matrix_lp
from repro.defenses.morphing import (
    MorphingMatrix,
    TrafficMorphing,
    monotone_coupling,
)
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.packet import DOWNLINK, UPLINK
from repro.traffic.trace import Trace


class TestMonotoneCoupling:
    def test_marginals_match(self):
        rng = np.random.default_rng(0)
        source = rng.choice([100, 500, 1500], 4000, p=[0.5, 0.3, 0.2])
        target = rng.choice([200, 900, 1576], 4000, p=[0.2, 0.3, 0.5])
        coupling = monotone_coupling(source, target)
        # Row sums reproduce the source distribution, column sums the target.
        p = coupling.plan.sum(axis=1)
        q = coupling.plan.sum(axis=0)
        assert np.allclose(p.sum(), 1.0)
        assert np.allclose(q.sum(), 1.0)
        assert p[0] == pytest.approx(0.5, abs=0.03)
        assert q[2] == pytest.approx(0.5, abs=0.03)

    def test_identity_when_distributions_equal(self):
        sizes = np.array([100] * 50 + [1500] * 50)
        coupling = monotone_coupling(sizes, sizes)
        conditional = coupling.conditional()
        assert np.allclose(np.diag(conditional), 1.0)

    def test_expected_mean(self):
        source = np.array([100] * 100)
        target = np.array([500] * 100)
        coupling = monotone_coupling(source, target)
        assert coupling.expected_target_mean() == pytest.approx(500.0)

    def test_sample_targets_follow_plan(self, rng):
        source = np.array([100] * 1000)
        target = np.array([300] * 500 + [700] * 500)
        coupling = monotone_coupling(source, target)
        out = coupling.sample_targets(np.full(2000, 100), rng)
        assert set(out.tolist()) == {300, 700}
        assert abs((out == 300).mean() - 0.5) < 0.05


class _Draws:
    """A generator stand-in whose ``random`` returns fixed draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws.copy()


class TestSampleTargetsOracle:
    """The sort-grouped sampler draws exactly what the per-row loop draws."""

    def same(self, coupling, sizes, seed=0):
        ours = coupling.sample_targets(sizes, np.random.default_rng(seed))
        reference = morphing_oracle.sample_targets(
            coupling, sizes, np.random.default_rng(seed)
        )
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_supports(self, seed):
        rng = np.random.default_rng(seed)
        source = rng.integers(40, 1577, int(rng.integers(1, 3000)))
        target = rng.integers(40, 1577, int(rng.integers(1, 3000)))
        coupling = monotone_coupling(source, target)
        self.same(coupling, rng.permutation(source), seed)

    def test_sizes_outside_the_support_clip(self):
        coupling = monotone_coupling(np.array([100, 500, 900]), np.array([200, 800]))
        sizes = np.array([1, 99, 100, 101, 500, 901, 5000, 100, 1])
        self.same(coupling, sizes)

    def test_one_row(self):
        coupling = monotone_coupling(np.array([300] * 10), np.array([200, 400, 600]))
        self.same(coupling, np.full(50, 300))
        self.same(coupling, np.array([], dtype=np.int64))

    def test_draw_on_a_cumulative_plateau(self):
        # Row 0's conditional has a zero column, so its cumulative sum
        # holds 0.5 twice: a draw of exactly 0.5 lands past the plateau.
        matrix = MorphingMatrix(
            source_support=np.array([100, 200]),
            target_support=np.array([300, 400, 500]),
            plan=np.array([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]]),
        )
        sizes = np.array([100, 200, 100, 100, 200])
        draws = [0.5, 0.5, 0.0, 0.9999, 0.25]
        ours = matrix.sample_targets(sizes, _Draws(draws))
        reference = morphing_oracle.sample_targets(matrix, sizes, _Draws(draws))
        assert np.array_equal(ours, reference)
        assert ours.tolist() == [500, 400, 300, 500, 400]


class TestMorphingLp:
    def test_lp_matches_monotone_cost_on_line(self):
        # On the real line with |.| cost, the comonotone coupling is
        # optimal, so the LP value must equal its transport cost.
        source_support = np.array([100, 500, 1500])
        target_support = np.array([200, 900, 1576])
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        plan = morphing_matrix_lp(p, q, source_support, target_support)
        lp_cost = (
            plan * np.abs(target_support[None, :] - source_support[:, None])
        ).sum()

        source = np.repeat(source_support, (p * 1000).astype(int))
        target = np.repeat(target_support, (q * 1000).astype(int))
        monotone_cost = monotone_coupling(source, target).transport_cost()
        assert lp_cost == pytest.approx(monotone_cost, rel=0.02)

    def test_lp_marginals(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.3, 0.7])
        plan = morphing_matrix_lp(p, q, np.array([100, 800]), np.array([200, 1500]))
        assert np.allclose(plan.sum(axis=1), p, atol=1e-8)
        assert np.allclose(plan.sum(axis=0), q, atol=1e-8)

    def test_lp_rejects_bad_marginals(self):
        with pytest.raises(ValueError):
            morphing_matrix_lp(
                np.array([0.6, 0.6]), np.array([0.5, 0.5]),
                np.array([1, 2]), np.array([1, 2]),
            )


class TestTrafficMorphing:
    @pytest.fixture(scope="class")
    def traces(self):
        generator = TrafficGenerator(seed=21)
        return {
            "chatting": generator.generate(AppType.CHATTING, 90.0),
            "gaming": generator.generate(AppType.GAMING, 90.0),
            "video": generator.generate(AppType.VIDEO, 60.0),
            "downloading": generator.generate(AppType.DOWNLOADING, 30.0),
        }

    def test_morphed_distribution_moves_toward_target(self, traces):
        morpher = TrafficMorphing(target_trace=traces["gaming"], seed=0)
        defended = morpher.apply(traces["chatting"])
        flow = defended.observable_flows[0]
        source_mean = traces["chatting"].direction_view(DOWNLINK).sizes.mean()
        target_mean = traces["gaming"].direction_view(DOWNLINK).sizes.mean()
        morphed_mean = flow.direction_view(DOWNLINK).sizes.mean()
        assert abs(morphed_mean - target_mean) < abs(source_mean - target_mean)

    def test_overhead_positive_when_growing(self, traces):
        # chat -> gaming grows packets: overhead roughly the mean ratio.
        morpher = TrafficMorphing(target_trace=traces["gaming"], seed=0)
        defended = morpher.apply(traces["chatting"])
        assert defended.extra_bytes > 0

    def test_video_to_downloading_is_cheap(self, traces):
        # Table VI: video -> downloading costs ~1.8%.
        morpher = TrafficMorphing(target_trace=traces["downloading"], seed=0)
        defended = morpher.apply(traces["video"])
        down_bytes = traces["video"].direction_view(DOWNLINK).sizes.sum()
        overhead = defended.extra_bytes / down_bytes
        assert overhead < 0.10

    def test_shrinking_fragments_packets(self, traces):
        # gaming -> chatting must shrink some packets -> more packets out.
        morpher = TrafficMorphing(target_trace=traces["chatting"], seed=0)
        defended = morpher.apply(traces["gaming"])
        flow = defended.observable_flows[0]
        assert len(flow) >= len(traces["gaming"])

    def test_empty_trace_passthrough(self):
        morpher = TrafficMorphing(target_trace=Trace.empty("gaming"), seed=0)
        trace = Trace.from_arrays([0.0], [500], label="chatting")
        defended = morpher.apply(trace)
        assert defended.extra_bytes == 0

    def test_paper_morph_pairs(self):
        pairs = TrafficMorphing.paper_morph_pairs()
        assert pairs["chatting"] == "gaming"
        assert pairs["video"] == "downloading"
        assert "downloading" not in pairs
        assert "uploading" not in pairs


def _columns(trace):
    return [trace.times, trace.sizes, trace.directions, trace.ifaces, trace.channels, trace.rssi]


class TestTransformOracle:
    """The one-gather transform equals the select → sort → merge oracle."""

    @pytest.fixture(scope="class")
    def traces(self):
        generator = TrafficGenerator(seed=5)
        return {
            app.value: generator.generate(app, 40.0)
            for app in (
                AppType.CHATTING,
                AppType.GAMING,
                AppType.BROWSING,
                AppType.VIDEO,
                AppType.UPLOADING,
            )
        }

    def same(self, morpher, trace):
        ours = morpher.transform(trace)
        reference = morphing_oracle.transform(morpher, trace)
        assert ours.extra_bytes == reference.extra_bytes
        assert list(ours.flows) == list(reference.flows) == [0]
        flow, expected = ours.flows[0], reference.flows[0]
        assert flow.label == expected.label
        assert flow.meta == expected.meta
        for column, want in zip(_columns(flow), _columns(expected)):
            assert column.dtype == want.dtype
            assert np.array_equal(column, want, equal_nan=True)
        return flow

    @pytest.mark.parametrize(
        "source, target",
        [
            ("chatting", "gaming"),
            ("gaming", "chatting"),
            ("browsing", "video"),
            ("video", "uploading"),
            ("uploading", "browsing"),
        ],
    )
    def test_generated_traces(self, traces, source, target):
        morpher = TrafficMorphing(target_trace=traces[target], seed=3)
        self.same(morpher, traces[source])

    @staticmethod
    def tied(trace):
        """``trace`` on a 1 s clock, with interfaces and RSSI set."""
        rng = np.random.default_rng(0)
        n = len(trace)
        return Trace.from_arrays(
            np.floor(trace.times),
            trace.sizes,
            trace.directions,
            rng.integers(0, 4, n),
            trace.channels,
            rng.uniform(-90, -30, n),
            label=trace.label,
            meta={"source": "tied"},
        )

    def test_forced_ties(self, traces):
        trace = self.tied(traces["gaming"])
        tie = np.diff(trace.times) == 0
        assert tie.sum() > len(trace) // 2
        # Some uplink packet precedes a downlink packet of equal time, so
        # source order is not the merged order.
        assert (tie & (trace.directions[:-1] == UPLINK) & (trace.directions[1:] == DOWNLINK)).any()
        morpher = TrafficMorphing(target_trace=traces["chatting"], seed=1)
        flow = self.same(morpher, trace)
        assert flow.meta == {}
        morphed = flow.directions == DOWNLINK
        assert (flow.ifaces[morphed] == 0).all()
        assert np.isnan(flow.rssi[morphed]).all()
        assert not np.isnan(flow.rssi[~morphed]).any()

    def test_hand_built_ties(self):
        # Uplink packets first in source order, then the tied downlink
        # packets: morphed fragments must come first within each time.
        trace = Trace.from_arrays(
            [0.0, 1.0, 1.0, 1.0, 1.0, 2.0],
            [100, 80, 1500, 90, 1400, 60],
            [UPLINK, UPLINK, DOWNLINK, UPLINK, DOWNLINK, UPLINK],
            ifaces=[1, 2, 3, 2, 1, 3],
            rssi=[-40.0, -41.0, -42.0, -43.0, -44.0, -45.0],
            label="downloading",
        )
        target = Trace.from_arrays([0.0, 1.0], [400, 400], label="chatting")
        morpher = TrafficMorphing(target_trace=target, seed=0)
        flow = self.same(morpher, trace)
        # 1500 B and 1400 B shrink to 400 B frames of 364 B payload: 5 + 4.
        assert flow.times.tolist() == [0.0] + [1.0] * 11 + [2.0]
        assert flow.sizes.tolist() == [100] + [400] * 9 + [80, 90, 60]
        assert flow.ifaces.tolist() == [1] + [0] * 9 + [2, 2, 3]

    @pytest.mark.parametrize("tie", [False, True])
    def test_morph_all_packets(self, traces, tie):
        trace = self.tied(traces["browsing"]) if tie else traces["browsing"]
        morpher = TrafficMorphing(
            target_trace=traces["video"], morph_all_packets=True, seed=2
        )
        self.same(morpher, trace)

    def test_no_data_packets(self, traces):
        uplink = traces["chatting"].direction_view(UPLINK)
        morpher = TrafficMorphing(target_trace=traces["gaming"], seed=0)
        flow = self.same(morpher, uplink)
        assert flow is uplink

    def test_empty_target(self, traces):
        morpher = TrafficMorphing(target_trace=Trace.empty("gaming"), seed=0)
        flow = self.same(morpher, traces["chatting"])
        assert flow is traces["chatting"]
