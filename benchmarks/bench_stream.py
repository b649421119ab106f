"""STREAMING: chunked replay vs per-event push, and the bounded-memory guarantee.

The streaming engine's pitch is evaluating arbitrarily long captures in
bounded space: per flow, only the *open* window's packets are resident.
This bench drives multi-hundred-thousand-packet replays (single flow
and a merged multi-station capture) twice on the same capture: as
column chunks through
:class:`~repro.stream.featurizer.StreamingFeaturizer`
(:meth:`~StreamingFeaturizer.push_chunk`, the route
:meth:`~repro.stream.attack.OnlineAttack.consume` and the arms race
take) and one event at a time through the per-packet oracle
(``EventFeaturizer.push_event`` in ``tests/oracles/stream.py``).  It
asserts:

* both routes emit identical windows — order, flow, index, start,
  label, count and feature bits — and identical peak gauges;
* the chunk route (fastest of ``CHUNK_RUNS``) is at least 5x faster
  than one per-event run (the measured ratio is recorded; the roadmap
  target is 10x);
* the peak buffered state is bounded by the densest single window —
  O(open windows), not O(trace length) — read from the
  ``stream.peak_open_*`` gauges of the run's :mod:`repro.obs` capture
  (the numbers a ``--profile`` run reports).

Results persist to ``results/stream.txt`` + ``results/stream.json`` via
``save_table`` and the chunk route's telemetry to
``results/stream.profile.json`` via ``save_profile``.
"""

import os
import sys
import time

import numpy as np

from repro import obs
from repro.analysis.windows import window_edges
from repro.stream import PacketStream, StreamingFeaturizer
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from oracles.stream import EventFeaturizer

WINDOW = 5.0

#: The chunk route must beat per-event push by at least this factor.
MIN_SPEEDUP = 5.0

#: The chunk route takes a fraction of a second per case, so one
#: scheduler hiccup on a shared host skews it; time it this many times
#: and keep the fastest (per-event push runs for seconds and once).
CHUNK_RUNS = 3

#: (label, apps, duration) — downloading at ~435 pkt/s dominates the
#: packet budget; the merged case adds concurrent stations.
CASES = (
    ("downloading-10min", (AppType.DOWNLOADING,), 600.0),
    ("bittorrent-10min", (AppType.BITTORRENT,), 600.0),
    ("seven-stations-3min", tuple(AppType), 180.0),
)


def _densest_window(traces):
    """Max packets any single window of any flow can hold."""
    return max(
        int(np.diff(np.searchsorted(t.times, window_edges(t.times, WINDOW))).max())
        for t in traces
        if len(t)
    )


def replay(stream, chunked):
    """Featurize ``stream`` by one route; (featurizer, windows, seconds)."""
    featurizer = StreamingFeaturizer(WINDOW) if chunked else EventFeaturizer(WINDOW)
    windows = []
    start = time.perf_counter()
    if chunked:
        for chunk in stream.chunks():
            windows.extend(featurizer.push_chunk(chunk))
    else:
        for event in stream:
            windows.extend(featurizer.push_event(event))
    windows.extend(featurizer.flush())
    return featurizer, windows, time.perf_counter() - start


def fastest_chunked(stream, seconds):
    """``seconds`` or the fastest of further chunked replays of ``stream()``."""
    return min(
        [seconds] + [replay(stream(), chunked=True)[2] for _ in range(CHUNK_RUNS - 1)]
    )


def assert_same_windows(ours, reference):
    assert len(ours) == len(reference) > 0
    for a, b in zip(ours, reference):
        assert (a.flow, a.index, a.start, a.label, a.count) == (
            b.flow, b.index, b.start, b.label, b.count,
        )
        assert np.array_equal(a.features, b.features)


def test_stream_throughput_and_memory_bound(benchmark, save_table, save_profile):
    generator = TrafficGenerator(seed=7)
    rows = []
    capture = obs.ProfileCapture(obs.PerfCounterSink())
    for label, apps, duration in CASES:
        traces = [generator.generate(app, duration) for app in apps]

        def stream():
            return PacketStream.merge(
                [
                    PacketStream.replay(trace, station=f"sta{index}")
                    for index, trace in enumerate(traces)
                ]
            )

        with obs.collecting(capture.metrics), obs.recording(capture.recorder):
            with obs.span(f"case[{label}]"):
                featurizer, windows, chunk_s = replay(stream(), chunked=True)
        chunk_s = fastest_chunked(stream, chunk_s)
        with obs.capture() as per_event:
            reference, reference_windows, event_s = replay(stream(), chunked=False)

        packets = sum(len(trace) for trace in traces)
        densest = _densest_window(traces)
        assert_same_windows(windows, reference_windows)
        gauges = capture.metrics.gauges
        # Gauges are run-wide maxima: compare this case's own peaks.
        assert featurizer.peak_open_packets == reference.peak_open_packets
        assert per_event.metrics.gauges["stream.peak_open_packets"] == (
            featurizer.peak_open_packets
        )
        # The bounded-memory guarantee: resident state scales with open
        # windows (one per station, each at most one window of packets),
        # never with how long the capture ran.
        assert featurizer.peak_open_packets <= densest * len(traces)
        assert featurizer.peak_open_packets < packets / 10
        assert gauges["stream.peak_open_packets"] >= featurizer.peak_open_packets
        assert featurizer.open_packets == 0
        assert featurizer.peak_open_flows == len(traces)
        speedup = event_s / chunk_s
        assert speedup >= MIN_SPEEDUP, f"{label}: chunk route only {speedup:.1f}x"

        rows.append(
            [
                label,
                packets,
                len(windows),
                featurizer.peak_open_packets,
                densest * len(traces),
                packets / chunk_s,
                packets / event_s,
                speedup,
            ]
        )

    counters = capture.metrics.counters
    assert counters["stream.windows_closed"] == sum(row[2] for row in rows)
    assert counters["stream.chunks"] > 0
    save_profile("stream", obs.profile_to_json(capture.run_profile("bench_stream")))
    save_table(
        "stream",
        [
            "case", "packets", "windows", "peak buffered", "bound",
            "chunk packets/s", "per-event packets/s", "speedup",
        ],
        rows,
        title=(
            f"Streaming featurization: chunked vs per-event replay, "
            f"memory bound (W={WINDOW}s)"
        ),
        float_digits=1,
    )

    # pytest-benchmark history: the single-station downloading replay.
    trace = generator.generate(AppType.DOWNLOADING, 120.0)

    def chunked_replay():
        featurizer, _, _ = replay(PacketStream.replay(trace, station="f"), chunked=True)
        return featurizer.windows_emitted

    benchmark.pedantic(chunked_replay, rounds=3, iterations=1)
