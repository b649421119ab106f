"""Property tests: the columnar arms race equals the per-packet loop, exactly.

:func:`repro.stream.adaptive.run_arms_race` schedules each trace with
the base scheduler's ``assign_columns`` and observes it in chunks that
end where the defender's trigger may fire; the oracle
(:func:`oracles.stream.run_arms_race_per_event`) schedules, observes and
notifies one packet at a time.  They must agree on the outcome
(confusion matrix, windows, flows seen, reallocations, handshake
bytes), on every window prediction in emission order, and on the
``stream.*`` / ``online.*`` telemetry bar ``stream.chunks``.

Traces sit on a quarter-second lattice (equal timestamps, packets on
window edges and on FH slot edges), include directions outside
{0, 1}, empty and single-packet traces, and slices of real traffic
that the trained attacker recognizes, so that with thresholds of
0.3-0.6 the defender reallocates often.  An epoch's windows start at
least W after the window that ended the previous one, so a cooldown
binds only above W (5 s): cooldowns of 0 and 2.5 s never hold the
trigger back, 7.5 and 10 s do, and on the lattice a window can start
exactly one cooldown after a reallocation.
Chunks are forced small by patching ``_CHUNK_EVENTS``, so segments
also split between the closes that may fire the trigger, and the scan
for those closes starts small (``_LOOK_AHEAD``), so it grows span by
span.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.stream import run_arms_race_per_event

from repro import obs
from repro.analysis.attack import AttackPipeline
from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.stream import adaptive as adaptive_module
from repro.stream import source as stream_source
from repro.stream.attack import OnlineAttack
from repro.traffic.trace import Trace

SCHEDULERS = {
    "or": lambda: OrthogonalReshaper.paper_default(),
    "rr": lambda: RoundRobinReshaper(3),
    "ra": lambda: RandomReshaper(3, seed=11),
    "fh": lambda: FrequencyHoppingScheduler(),
}


@pytest.fixture(scope="module")
def trained(tiny_corpus):
    pipeline = AttackPipeline(window=5.0, seed=0)
    pipeline.train(tiny_corpus)
    return pipeline


def lattice(times):
    return np.floor(np.asarray(times) * 4.0) / 4.0


def real_slice(trace, start, span, stride, label):
    """Every ``stride``-th packet of ``trace`` in ``[start, start + span)``,
    snapped to the lattice."""
    lo, hi = np.searchsorted(trace.times, [start, start + span])
    at = np.arange(lo, hi, stride)
    return Trace.from_arrays(
        lattice(trace.times[at]), trace.sizes[at], trace.directions[at], label=label
    )


@st.composite
def corpora(draw, sources):
    """One to three labels with one to three traces each, mostly real."""
    labels = draw(
        st.lists(st.sampled_from(sorted(sources)), min_size=1, max_size=3, unique=True)
    )
    corpus = {}
    for label in labels:
        traces = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(
                st.sampled_from(["real", "real", "real", "random", "empty", "single"])
            )
            if kind == "real":
                source = sources[label][draw(st.integers(0, 1))]
                trace = real_slice(
                    source,
                    0.25 * draw(st.integers(0, 80)),
                    0.25 * draw(st.integers(40, 160)),
                    draw(st.sampled_from([2, 5, 20])),
                    label,
                )
                if draw(st.booleans()):
                    directions = trace.directions.copy()
                    directions[::7] = draw(st.sampled_from([2, -1]))
                    trace = Trace.from_arrays(
                        trace.times, trace.sizes, directions, label=label
                    )
            elif kind == "random":
                n = draw(st.integers(2, 200))
                steps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
                ticks = np.cumsum(steps)
                trace = Trace.from_arrays(
                    0.25 * (draw(st.integers(0, 8)) + ticks.astype(np.float64)),
                    draw(st.lists(st.integers(1, 1576), min_size=n, max_size=n)),
                    draw(
                        st.lists(
                            st.sampled_from([0, 0, 1, 1, 2, -1]), min_size=n, max_size=n
                        )
                    ),
                    label=label,
                )
            elif kind == "single":
                trace = Trace.from_arrays([0.25 * draw(st.integers(0, 8))], [100], [0])
            else:
                trace = Trace.from_arrays([], [], [])
            traces.append(trace)
        corpus[label] = traces
    return corpus


def columnar(corpus, pipeline, factory, **kwargs):
    """The production loop's outcome, its attacker and its telemetry."""
    made = []

    class Recorded(OnlineAttack):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    with mock.patch.object(adaptive_module, "OnlineAttack", Recorded):
        with obs.capture() as capture:
            outcome = adaptive_module.run_arms_race(corpus, pipeline, factory, **kwargs)
    (attacker,) = made
    return outcome, attacker, capture.metrics


def per_packet(corpus, pipeline, factory, **kwargs):
    with obs.capture() as capture:
        outcome, attacker = run_arms_race_per_event(corpus, pipeline, factory, **kwargs)
    return outcome, attacker, capture.metrics


def assert_same_race(ours, reference, adaptive=True):
    outcome, attacker, metrics = ours
    expected, oracle, expected_metrics = reference
    assert outcome.reallocations == expected.reallocations
    assert outcome.config_overhead_bytes == expected.config_overhead_bytes
    assert outcome.windows == expected.windows
    assert outcome.flows_observed == expected.flows_observed
    assert outcome.report.confusion.classes == expected.report.confusion.classes
    np.testing.assert_array_equal(
        outcome.report.confusion.matrix, expected.report.confusion.matrix
    )
    # Every verdict, in emission order.  The adaptive loop classifies
    # windows one at a time, as the oracle does, so the trigger sees the
    # same confidences bit for bit.  The static loop classifies a trace's
    # windows in one model pass: its scores agree to rounding.
    if adaptive:
        assert attacker.predictions == oracle.predictions
    assert [p[:5] for p in attacker.predictions] == [p[:5] for p in oracle.predictions]
    np.testing.assert_allclose(
        [p.confidence for p in attacker.predictions],
        [p.confidence for p in oracle.predictions],
        rtol=0,
        atol=1e-12,
    )
    counters = {k: v for k, v in metrics.counters.items() if k != "stream.chunks"}
    assert counters == expected_metrics.counters
    assert metrics.gauges == expected_metrics.gauges


@given(
    data=st.data(),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    adaptive=st.sampled_from([True, True, True, False]),
    threshold=st.sampled_from([0.3, 0.4, 0.5, 0.6]),
    cooldown=st.sampled_from([0.0, 2.5, 7.5, 10.0]),
    size=st.sampled_from([1, 5, 64, stream_source._CHUNK_EVENTS]),
    look_ahead=st.sampled_from([1, 7, 64, adaptive_module._LOOK_AHEAD]),
)
@settings(max_examples=80, deadline=None)
def test_columnar_loop_equals_per_packet_loop(
    trained, tiny_corpus, data, scheduler, adaptive, threshold, cooldown, size,
    look_ahead,
):
    corpus = data.draw(corpora(tiny_corpus))
    kwargs = dict(
        adaptive=adaptive, confidence_threshold=threshold, cooldown=cooldown, seed=3
    )
    factory = SCHEDULERS[scheduler]
    with mock.patch.object(stream_source, "_CHUNK_EVENTS", size), mock.patch.object(
        adaptive_module, "_LOOK_AHEAD", look_ahead
    ):
        ours = columnar(corpus, trained, factory, **kwargs)
    assert_same_race(ours, per_packet(corpus, trained, factory, **kwargs), adaptive)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("cooldown", [0.0, 7.5])
def test_frequent_reallocations_stay_in_step(trained, tiny_corpus, scheduler, cooldown):
    """Whole real traces at a low threshold: the defender reallocates
    many times per trace, and both loops reallocate at the same closes."""
    corpus = {
        label: [
            Trace.from_arrays(
                lattice(trace.times), trace.sizes, trace.directions, label=label
            )
            for trace in traces[:1]
        ]
        for label, traces in tiny_corpus.items()
    }
    kwargs = dict(adaptive=True, confidence_threshold=0.3, cooldown=cooldown, seed=3)
    factory = SCHEDULERS[scheduler]
    with mock.patch.object(stream_source, "_CHUNK_EVENTS", 997), mock.patch.object(
        adaptive_module, "_LOOK_AHEAD", 61
    ):
        ours = columnar(corpus, trained, factory, **kwargs)
    assert ours[0].reallocations >= len(corpus)
    assert_same_race(ours, per_packet(corpus, trained, factory, **kwargs))
