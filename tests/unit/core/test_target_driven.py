"""Tests for the greedy target-driven scheduler (generalized Eq. 1)."""

import numpy as np
import pytest

from repro.core.target_driven import TargetDrivenReshaper
from repro.core.targets import TargetDistribution, orthogonal_targets
from repro.traffic.trace import Trace


@pytest.fixture
def trace():
    rng = np.random.default_rng(1)
    sizes = rng.choice([150, 700, 1570], size=900, p=[0.5, 0.25, 0.25])
    return Trace.from_arrays(np.arange(900) * 0.01, sizes)


class TestOrthogonalTargets:
    def test_matches_or_on_orthogonal_targets(self, trace):
        targets = orthogonal_targets((232, 1540, 1576))
        reshaper = TargetDrivenReshaper(targets)
        reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
        # Greedy achieves the OR optimum on orthogonal targets.
        assert reshaper.objective() < 0.05


class TestGeneralTargets:
    def _mixed_targets(self) -> TargetDistribution:
        matrix = np.array(
            [
                [0.8, 0.2, 0.0],  # interface 0 should look mostly small
                [0.2, 0.5, 0.3],  # interface 1 mixed
                [0.0, 0.2, 0.8],  # interface 2 mostly full
            ]
        )
        return TargetDistribution((232, 1540, 1576), matrix)

    def test_greedy_tracks_targets(self, trace):
        # Eq. 1 does not penalize load imbalance, so the one-step greedy
        # may park most packets on one interface; it must still land far
        # below the no-defense objective (every row at distance ~1).
        reshaper = TargetDrivenReshaper(self._mixed_targets())
        reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
        assert reshaper.objective() < 0.6

    def test_greedy_beats_random_assignment(self, trace):
        targets = self._mixed_targets()
        greedy = TargetDrivenReshaper(targets)
        greedy.assign_columns(trace.times, trace.sizes, trace.directions)

        rng = np.random.default_rng(0)
        random_assignment = rng.integers(0, 3, size=len(trace)).astype(np.int16)
        from repro.core.optimization import ReshapingObjective

        random_objective = ReshapingObjective.evaluate(
            trace.with_ifaces(random_assignment), targets
        ).value
        assert greedy.objective() <= random_objective

    def test_achieved_distributions_rows(self, trace):
        reshaper = TargetDrivenReshaper(self._mixed_targets())
        reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
        p = reshaper.achieved_distributions()
        used = p.sum(axis=1) > 0
        assert np.allclose(p[used].sum(axis=1), 1.0)

    def test_reset_clears_state(self, trace):
        reshaper = TargetDrivenReshaper(self._mixed_targets())
        reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
        reshaper.reset()
        assert reshaper.objective() == pytest.approx(
            np.sqrt((reshaper.targets.matrix**2).sum(axis=1)).sum()
        )

    def test_online_equals_batch(self, trace):
        targets = self._mixed_targets()
        online = TargetDrivenReshaper(targets)
        batch = TargetDrivenReshaper(targets)
        one_by_one = [
            online.assign_packet(float(t), int(s), 0)
            for t, s in zip(trace.times[:100], trace.sizes[:100])
        ]
        assert one_by_one == list(
            batch.assign_columns(
                trace.times[:100], trace.sizes[:100], trace.directions[:100]
            )
        )
