"""Synthetic trace generation for the seven application models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.traffic.apps import ALL_APPS, AppModel, AppType, app_model
from repro.traffic.packet import DOWNLINK, UPLINK, Direction
from repro.traffic.trace import Trace, merge_directions
from repro.util.rng import RngFactory
from repro.util.validation import require_positive

__all__ = ["TrafficGenerator", "generate_app_trace"]


@dataclass
class TrafficGenerator:
    """Generates application traces from the calibrated models.

    One generator instance corresponds to one "capture session": the
    same ``seed`` reproduces identical traces, and distinct ``session``
    indices produce statistically independent captures of the same
    application (used to build train/test splits the way the paper uses
    distinct time periods of its 50 h corpus).

    Real home-WLAN captures vary session to session — "the data rate may
    fluctuate from 1Mbps to 54Mbps" (Sec. IV-A) — so each session draws
    a log-normal rate factor (applied to every time constant) and
    Dirichlet-jittered size-mixture weights; within a session the rate
    also drifts (piecewise log-normal warping every ``drift_segment``
    seconds), modeling congestion and server-side dynamics.  Set
    ``rate_sigma=0``, ``size_jitter=0`` and ``drift_sigma=0`` for the
    deterministic calibrated models.

    >>> gen = TrafficGenerator(seed=1)
    >>> trace = gen.generate(AppType.CHATTING, duration=30.0)
    >>> trace.label
    'chatting'
    """

    #: Session rate factor is exp(N(0, rate_sigma)); the default makes
    #: ±2 sigma span a ~50x rate range, matching the paper's observation
    #: that link rates swing between 1 and 54 Mbps (Sec. IV-A).
    seed: int = 0
    rate_sigma: float = 0.85
    size_jitter: float = 80.0
    drift_sigma: float = 0.35
    drift_segment: float = 15.0

    def generate(
        self,
        app: AppType | str,
        duration: float,
        session: int = 0,
        channel: int = 1,
    ) -> Trace:
        """Generate a bidirectional trace of ``app`` lasting ``duration`` s."""
        require_positive(duration, "duration")
        model = app_model(app)
        factory = RngFactory(self.seed).child("traffic", model.app.value, str(session))
        down = self._direction_columns(model, DOWNLINK, duration, factory)
        up = self._direction_columns(model, UPLINK, duration, factory)
        trace = merge_directions(down, up, channel, label=model.app.value)
        trace.meta = {"app": model.app.value, "session": session, "duration": duration}
        obs.add("traffic.traces_generated")
        obs.add("traffic.packets_generated", len(trace))
        return trace

    def generate_corpus(
        self,
        duration: float,
        sessions: int = 1,
        apps: tuple[AppType, ...] = ALL_APPS,
    ) -> dict[AppType, list[Trace]]:
        """Generate ``sessions`` independent traces per application."""
        return {
            app: [self.generate(app, duration, session=s) for s in range(sessions)]
            for app in apps
        }

    def _direction_columns(
        self,
        model: AppModel,
        direction: Direction,
        duration: float,
        factory: RngFactory,
    ) -> list[np.ndarray]:
        """One direction's ``[times, sizes]`` columns (sorted times)."""
        direction_model = model.direction(direction)
        name = "down" if direction is DOWNLINK else "up"
        arrivals = direction_model.arrivals
        mixture = direction_model.sizes
        if self.rate_sigma > 0:
            # One rate factor per session, shared by both directions (a
            # fast or slow link affects the whole capture), plus a small
            # per-direction component.
            session_factor = float(
                np.exp(factory.get("rate").normal(0.0, self.rate_sigma))
            )
            direction_factor = float(
                np.exp(factory.get(name, "rate").normal(0.0, self.rate_sigma / 3))
            )
            arrivals = arrivals.scaled(session_factor * direction_factor)
        if self.size_jitter > 0:
            mixture = mixture.jittered(
                factory.get(name, "weights"), concentration=self.size_jitter
            )
        times = arrivals.sample(factory.get(name, "arrivals"), duration)
        if self.drift_sigma > 0 and len(times) > 1:
            times = self._apply_rate_drift(
                times, duration, factory.get(name, "drift")
            )
        sizes = mixture.sample(factory.get(name, "sizes"), len(times))
        return [times, sizes]

    def _apply_rate_drift(
        self,
        times: np.ndarray,
        duration: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Piecewise time-warp modeling within-session rate fluctuation.

        The session is cut into ``drift_segment``-second stretches; each
        stretch draws an independent log-normal rate factor, and the
        interarrival gaps of packets falling in it are scaled by that
        factor.  Packets warped beyond the nominal duration are dropped.
        """
        if len(times) < 2:
            return times
        segment_count = int(np.ceil(duration / self.drift_segment)) + 1
        factors = np.exp(rng.normal(0.0, self.drift_sigma, size=segment_count))
        # In place where the arithmetic allows: a downloading session
        # runs to a million packets, and each temporary is one more
        # column of the generating process's peak memory.
        segment_of_gap = (times[1:] / self.drift_segment).astype(np.int64)
        np.minimum(segment_of_gap, segment_count - 1, out=segment_of_gap)
        gaps = np.diff(times)
        gaps *= factors[segment_of_gap]
        del segment_of_gap
        warped = np.empty_like(times)
        warped[0] = times[0]
        np.cumsum(gaps, out=warped[1:])
        del gaps
        warped[1:] += times[0]
        return warped[warped < duration]


def generate_app_trace(
    app: AppType | str,
    duration: float,
    seed: int = 0,
    session: int = 0,
) -> Trace:
    """Convenience wrapper: one trace of ``app`` from a fresh generator."""
    return TrafficGenerator(seed=seed).generate(app, duration, session=session)
