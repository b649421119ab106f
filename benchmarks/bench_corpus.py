"""STORAGE: corpus build/open/replay throughput vs the CSV path.

The columnar :class:`~repro.storage.TraceStore` exists so corpus size
decouples from RAM and parse speed: building streams raw column bytes,
opening memory-maps them in O(manifest), and replay runs zero-copy off
the maps.  This bench drives a multi-million-packet corpus through the
whole lifecycle and records throughput per stage, next to the CSV
interchange path on a subset (row-by-row CSV at full corpus scale is
exactly the bottleneck the store removes).

Hard assertions:

* replaying the stored corpus emits feature vectors **bit-identical**
  (``np.array_equal``) to the in-memory replay of the same traces, in
  the same order;
* the chunked replay (the route ``OnlineAttack.consume`` takes) emits
  the same windows and peak gauges as per-event push (the oracle in
  ``tests/oracles/stream.py``, through ``bench_stream.replay``) on the
  same stored capture, and is at least 5x faster (the one wall-clock
  assertion; the measured ratio is recorded);
* replay memory stays within the O(open windows) bound — peak buffered
  packets never exceed the densest window x stations, asserted from
  the ``stream.peak_open_packets`` gauge of the replay's
  :mod:`repro.obs` capture (the ``--profile`` number);
* every persisted column round-trips byte-for-byte.

Results persist to ``results/corpus.{txt,json}`` via ``save_table``
and the captured replay telemetry to ``results/corpus.profile.json``
via ``save_profile``.
"""

import os
import time

import numpy as np

from repro import obs
from repro.analysis.windows import window_edges
from repro.storage import TraceStore
from repro.stream import PacketStream
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.io import csv_to_store, trace_from_csv, trace_to_csv

from bench_stream import MIN_SPEEDUP, assert_same_windows, fastest_chunked, replay

WINDOW = 5.0

#: Per-app capture length: heavy apps long enough that the corpus as a
#: whole crosses several million packets.
DURATIONS = {
    AppType.DOWNLOADING: 1200.0,
    AppType.BITTORRENT: 1200.0,
    AppType.VIDEO: 1200.0,
    AppType.BROWSING: 600.0,
    AppType.CHATTING: 600.0,
    AppType.GAMING: 600.0,
    AppType.UPLOADING: 600.0,
}

#: CSV comparison runs on one mid-size flow, not the whole corpus — the
#: point is the per-packet cost gap, not waiting minutes for CSV.
CSV_APP = AppType.VIDEO


def _densest_window(traces):
    return max(
        int(np.diff(np.searchsorted(t.times, window_edges(t.times, WINDOW))).max())
        for t in traces
        if len(t)
    )


def test_corpus_lifecycle_throughput(
    save_table, save_profile, tmp_path_factory, benchmark
):
    root = tmp_path_factory.mktemp("bench-corpus")
    store_path = str(root / "corpus.store")
    rows = []

    def stage(name, packets, seconds, size_bytes=None):
        rows.append(
            [
                name,
                packets,
                seconds,
                packets / seconds if seconds > 0 else float("inf"),
                (size_bytes / 1e6) if size_bytes is not None else float("nan"),
            ]
        )

    generator = TrafficGenerator(seed=7)
    start = time.perf_counter()
    traces = [generator.generate(app, duration) for app, duration in DURATIONS.items()]
    packets = sum(len(t) for t in traces)
    stage("generate traffic", packets, time.perf_counter() - start)
    assert packets > 2_000_000, f"corpus too small to be representative: {packets}"

    # -- build: stream every trace's columns to disk -----------------------
    start = time.perf_counter()
    with TraceStore.create(store_path) as writer:
        for index, trace in enumerate(traces):
            writer.add(trace, station=f"sta{index}")
    store = TraceStore.open(store_path)
    stage("store build", packets, time.perf_counter() - start, store.nbytes)

    # -- open: O(manifest), not O(packets) ---------------------------------
    start = time.perf_counter()
    reopened = TraceStore.open(store_path)
    open_seconds = time.perf_counter() - start
    stage("store open", packets, open_seconds, store.nbytes)

    # Round trip is byte-exact for every column of every trace.
    for original, loaded in zip(traces, reopened):
        for column in ("times", "sizes", "directions", "ifaces", "channels", "rssi"):
            assert (
                getattr(original, column).tobytes()
                == getattr(loaded, column).tobytes()
            )

    # -- replay off the maps (chunked and per event) vs. replay from RAM --
    with obs.capture(obs.PerfCounterSink()) as capture:
        with obs.span("store.replay"):
            disk_featurizer, disk_windows, disk_s = replay(
                PacketStream.from_store(reopened), chunked=True
            )
    disk_s = fastest_chunked(lambda: PacketStream.from_store(reopened), disk_s)
    stage("store replay+featurize", packets, disk_s)
    save_profile(
        "corpus", obs.profile_to_json(capture.run_profile("bench_corpus"))
    )
    with obs.capture() as per_event:
        event_featurizer, event_windows, event_s = replay(
            PacketStream.from_store(reopened), chunked=False
        )
    stage("store replay+featurize (per event)", packets, event_s)

    _, ram_windows, ram_s = replay(
        PacketStream.merge(
            [
                PacketStream.replay(trace, station=f"sta{index}", label=trace.label)
                for index, trace in enumerate(traces)
            ]
        ),
        chunked=True,
    )
    stage("ram replay+featurize", packets, ram_s)

    # Bit parity: same windows, same order, same feature bits — off disk
    # vs from RAM, and chunked vs per event.
    assert_same_windows(disk_windows, ram_windows)
    assert_same_windows(disk_windows, event_windows)
    assert capture.metrics.gauges == per_event.metrics.gauges
    speedup = event_s / disk_s
    assert speedup >= MIN_SPEEDUP, f"chunked store replay only {speedup:.1f}x"

    # Bounded memory: O(open windows), independent of corpus length —
    # asserted from the replay's telemetry gauge.
    bound = _densest_window(traces) * len(traces)
    assert capture.metrics.gauges["stream.peak_open_packets"] <= bound
    assert disk_featurizer.open_packets == 0

    # -- the CSV path, for contrast (one mid-size flow) --------------------
    csv_trace = next(t for t, app in zip(traces, DURATIONS) if app is CSV_APP)
    csv_path = str(root / "flow.csv")
    start = time.perf_counter()
    trace_to_csv(csv_trace, csv_path)
    stage(
        "csv write (1 flow)", len(csv_trace), time.perf_counter() - start,
        os.path.getsize(csv_path),
    )
    start = time.perf_counter()
    parsed = trace_from_csv(csv_path, label=csv_trace.label)
    stage("csv read (1 flow)", len(csv_trace), time.perf_counter() - start)
    assert parsed.times.tobytes() == csv_trace.times.tobytes()
    start = time.perf_counter()
    converted = csv_to_store(
        csv_path, str(root / "flow.store"), labels=[csv_trace.label]
    )
    stage("csv->store (1 flow)", len(csv_trace), time.perf_counter() - start)
    assert converted.trace(0).sizes.tobytes() == csv_trace.sizes.tobytes()

    save_table(
        "corpus",
        ["stage", "packets", "wall s", "packets/s", "MB"],
        rows,
        title=(
            f"Trace corpus lifecycle on a {packets / 1e6:.1f}M-packet corpus "
            f"(store open touches no column bytes; W={WINDOW}s replay; "
            f"chunked store replay {speedup:.1f}x per-event push)"
        ),
        float_digits=2,
    )

    # pytest-benchmark history: reopen + featurize one stored flow.
    small_index = min(range(len(traces)), key=lambda i: len(traces[i]))

    def replay_stored():
        fresh = TraceStore.open(store_path)
        featurizer, _, _ = replay(
            PacketStream.replay(fresh.trace(small_index), station="bench"),
            chunked=True,
        )
        return featurizer.windows_emitted

    benchmark.pedantic(replay_stored, rounds=3, iterations=1)
