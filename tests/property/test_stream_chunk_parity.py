"""Property tests: the chunked streaming route equals per-event push, exactly.

:meth:`OnlineAttack.consume` runs on column chunks
(:meth:`PacketStream.chunks` → :meth:`StreamingFeaturizer.push_chunk`);
the per-packet route of ``tests/oracles/stream.py`` pushes one event at
a time.  The two routes must agree on everything observable — the
:class:`ClosedWindow` sequence (order, flow, index, start, label,
count and feature bits), the ``stream.*`` counters and gauges (bar
``stream.chunks``), and the attacker's predictions — whatever the
chunk size.  Chunks are forced
tiny by patching the private ``_CHUNK_EVENTS`` constant, so windows,
ties and flows straddle chunk boundaries constantly.

The per-event reference replays the capture in heap-merge order,
computed here independently of the chunked merge: (time, source
position, packet position), with a nested merge's sources flattened in
order.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.stream import EventAttack, EventFeaturizer

from repro import obs
from repro.analysis.attack import AttackPipeline
from repro.analysis.batch import flow_feature_matrix
from repro.analysis.classifiers import GaussianNaiveBayes
from repro.schemes import SchemeSpec, build_stack
from repro.stream import OnlineAttack, PacketEvent, PacketStream, StreamingFeaturizer
from repro.stream import source as stream_source
from repro.traffic.trace import Trace

#: Chunk sizes worth forcing: one packet, awkward small sizes, the default.
CHUNK_SIZES = st.sampled_from([1, 2, 3, 7, 64, stream_source._CHUNK_EVENTS])


def chunk_size(size):
    return mock.patch.object(stream_source, "_CHUNK_EVENTS", size)


@st.composite
def captures(draw):
    """Stations of one or two consecutive phases each, as in ``drift``.

    Times sit on a quarter-second lattice, so equal timestamps across
    stations (and windows edges landing on packets) are common.  A
    second phase is replayed with an offset that starts it at or after
    the first phase's last packet, under the same station.  Directions
    include values outside {0, 1}.
    """
    stations = []
    for station in range(draw(st.integers(1, 4))):
        phases = []
        clock = 0.25 * draw(st.integers(0, 8))
        for phase in range(draw(st.integers(1, 2))):
            n = draw(st.integers(0, 40))
            ticks = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
            times = 0.25 * ticks.astype(np.float64)
            offset = clock if phase else 0.0
            if not phase:
                times = times + clock
            trace = Trace.from_arrays(
                times,
                draw(st.lists(st.integers(1, 1576), min_size=n, max_size=n)),
                draw(
                    st.lists(st.sampled_from([0, 0, 1, 1, 2, -1]), min_size=n, max_size=n)
                ),
            )
            label = draw(st.sampled_from([None, "a", "b"]))
            phases.append((trace, f"s{station}", label, offset))
            if n:
                clock = float(times[-1] + offset) + 0.25 * draw(st.integers(0, 2))
        stations.append(phases)
    return stations


def stream_of(capture):
    return PacketStream.merge(
        [
            PacketStream.merge(
                [
                    PacketStream.replay(trace, station=station, label=label, offset=offset)
                    for trace, station, label, offset in phases
                ]
            )
            for phases in capture
        ]
    )


def heap_order(capture) -> list[PacketEvent]:
    """The capture's events in (time, source, position) order."""
    keyed = []
    sources = [phase for phases in capture for phase in phases]
    for number, (trace, station, label, offset) in enumerate(sources):
        for position in range(len(trace)):
            time = float(trace.times[position]) + offset
            event = PacketEvent(
                time,
                int(trace.sizes[position]),
                int(trace.directions[position]),
                station,
                label,
            )
            keyed.append(((time, number, position), event))
    return [event for _, event in sorted(keyed, key=lambda pair: pair[0])]


def chunk_route(stream, window):
    featurizer = StreamingFeaturizer(window)
    with obs.capture() as capture:
        closed = [w for chunk in stream.chunks() for w in featurizer.push_chunk(chunk)]
        closed += featurizer.flush()
    return featurizer, closed, capture.metrics


def event_route(events, window):
    featurizer = EventFeaturizer(window)
    with obs.capture() as capture:
        closed = [w for event in events for w in featurizer.push_event(event)]
        closed += featurizer.flush()
    return featurizer, closed, capture.metrics


def assert_same_windows(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert (a.flow, a.index, a.start, a.label, a.count) == (
            b.flow, b.index, b.start, b.label, b.count,
        )
        assert np.array_equal(a.features, b.features)


def assert_same_telemetry(ours, reference):
    counters = {k: v for k, v in ours.counters.items() if k != "stream.chunks"}
    assert counters == reference.counters
    assert ours.gauges == reference.gauges


windows = st.sampled_from([0.5, 1.0, 0.30000000000000004, 2.5, 7.3])


@given(capture=captures(), size=CHUNK_SIZES)
@settings(max_examples=80, deadline=None)
def test_merge_emits_heap_merge_order(capture, size):
    with chunk_size(size):
        assert list(stream_of(capture)) == heap_order(capture)


@given(capture=captures(), size=CHUNK_SIZES, window=windows)
@settings(max_examples=150, deadline=None)
def test_chunk_route_equals_per_event_push(capture, size, window):
    stream = stream_of(capture)
    with chunk_size(size):
        ours, closed, metrics = chunk_route(stream, window)
    reference, expected, reference_metrics = event_route(heap_order(capture), window)
    assert_same_windows(closed, expected)
    assert_same_telemetry(metrics, reference_metrics)
    assert ours.peak_open_packets == reference.peak_open_packets
    assert ours.peak_open_flows == reference.peak_open_flows
    assert ours.windows_emitted == reference.windows_emitted
    assert ours.open_packets == reference.open_packets == 0


@given(capture=captures(), size=CHUNK_SIZES, window=windows)
@settings(max_examples=60, deadline=None)
def test_event_batching_adapter_equals_per_event_push(capture, size, window):
    """Any event iterable (here station-major, not time-ordered) batches
    into chunks that featurize exactly like pushing each event."""
    events = sorted(heap_order(capture), key=lambda event: event.station)
    with chunk_size(size):
        featurizer = StreamingFeaturizer(window)
        with obs.capture() as capture_metrics:
            closed = [
                w
                for chunk in stream_source.event_chunks(events)
                for w in featurizer.push_chunk(chunk)
            ]
            closed += featurizer.flush()
    reference, expected, reference_metrics = event_route(events, window)
    assert_same_windows(closed, expected)
    assert_same_telemetry(capture_metrics.metrics, reference_metrics)
    assert featurizer.peak_open_packets == reference.peak_open_packets


def test_chunks_counter_is_deterministic():
    trace = Trace.from_arrays(np.arange(10) * 0.5, [100] * 10)
    with chunk_size(3):
        _, _, metrics = chunk_route(PacketStream.replay(trace, station="f"), 1.0)
    assert metrics.counters["stream.chunks"] == 4


def many_stations(stations=72, seed=9):
    """``stations`` concurrent stations, one phase each, deterministic.

    Rates, start times and lattice steps vary per station, so windows
    close on many stations in every chunk and ties across stations are
    common; directions include values outside {0, 1}.
    """
    rng = np.random.default_rng(seed)
    capture = []
    for station in range(stations):
        n = int(rng.integers(0, 400))
        lattice = float(rng.choice([0.01, 0.05, 0.25]))
        start = lattice * int(rng.integers(0, 400))
        ticks = np.cumsum(rng.integers(0, int(rng.integers(2, 60)), n))
        trace = Trace.from_arrays(
            start + lattice * ticks.astype(np.float64),
            rng.integers(1, 1577, n),
            rng.choice([0, 0, 1, 1, 1, 2], n),
        )
        label = [None, "a", "b"][station % 3]
        capture.append([(trace, f"s{station}", label, 0.0)])
    return capture


@pytest.mark.parametrize("size", [64, stream_source._CHUNK_EVENTS])
@pytest.mark.parametrize("window", [5.0, 0.30000000000000004])
def test_many_stations_chunk_route_equals_per_event_and_batch(size, window):
    capture = many_stations()
    with chunk_size(size):
        ours, closed, metrics = chunk_route(stream_of(capture), window)
    reference, expected, reference_metrics = event_route(heap_order(capture), window)
    assert len({w.flow for w in closed}) >= 64
    assert_same_windows(closed, expected)
    assert_same_telemetry(metrics, reference_metrics)
    assert ours.peak_open_packets == reference.peak_open_packets
    assert ours.peak_open_flows == reference.peak_open_flows
    assert ours.windows_emitted == reference.windows_emitted == len(closed)
    for ((trace, station, label, _),) in capture:
        mine = [w for w in closed if w.flow == station]
        assert all(w.label == label for w in mine)
        rows = np.array([w.features for w in mine]).reshape(len(mine), 12)
        assert np.array_equal(rows, flow_feature_matrix(trace, window))


# -- the attacker ------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tiny_corpus):
    pipeline = AttackPipeline(window=5.0, seed=0)
    pipeline.train(tiny_corpus)
    return pipeline


@pytest.fixture(scope="module")
def drifting(tiny_corpus):
    """A merge of merges with offsets: every station switches apps."""
    labels = sorted(tiny_corpus)
    return [
        [
            (tiny_corpus[label][0], f"sta{index}", label, 0.0),
            (
                tiny_corpus[labels[(index + 1) % len(labels)]][1],
                f"sta{index}",
                labels[(index + 1) % len(labels)],
                60.0,
            ),
        ]
        for index, label in enumerate(labels)
    ]


def per_event(attacker, events):
    with obs.capture() as capture:
        for event in events:
            attacker.observe_event(event)
        attacker.finish()
    return capture.metrics


def consumed(attacker, stream, size):
    with chunk_size(size), obs.capture() as capture:
        attacker.consume(stream)
    return capture.metrics


def key(prediction):
    return prediction[:5]


@pytest.mark.parametrize("size", [61, 997, stream_source._CHUNK_EVENTS])
def test_frozen_predictions_match_per_event(trained, drifting, size):
    attacker = OnlineAttack.from_pipeline(trained)
    metrics = consumed(attacker, stream_of(drifting), size)
    reference = EventAttack.from_pipeline(trained)
    reference_metrics = per_event(reference, heap_order(drifting))
    assert [key(p) for p in attacker.predictions] == [
        key(p) for p in reference.predictions
    ]
    assert len(attacker.predictions) > 50
    # A chunk's windows are classified in one model pass, one row at a
    # time per event: the scores agree to rounding, the labels exactly.
    np.testing.assert_allclose(
        [p.confidence for p in attacker.predictions],
        [p.confidence for p in reference.predictions],
        rtol=0,
        atol=1e-12,
    )
    assert_same_telemetry(metrics, reference_metrics)


@pytest.mark.parametrize("size", [61, 997, stream_source._CHUNK_EVENTS])
def test_any_event_iterable_takes_the_adapter_route(trained, drifting, size):
    """A plain iterator of events (as a wrapping tracer passes) consumes
    like the column-backed stream it came from."""
    attacker = OnlineAttack.from_pipeline(trained)
    consumed(attacker, iter(list(stream_of(drifting))), size)
    reference = OnlineAttack.from_pipeline(trained)
    consumed(reference, stream_of(drifting), size)
    assert attacker.predictions == reference.predictions


@pytest.mark.parametrize("size", [61, 997, stream_source._CHUNK_EVENTS])
def test_learning_trajectory_matches_per_event(trained, drifting, size):
    def learner(kind):
        return kind(
            window=5.0,
            classifier=GaussianNaiveBayes(),
            classes=trained.classes,
            transform=trained.transform_matrix,
            learn=True,
        )

    attacker = learner(OnlineAttack)
    metrics = consumed(attacker, stream_of(drifting), size)
    reference = learner(EventAttack)
    reference_metrics = per_event(reference, heap_order(drifting))
    # Windows are handled one close at a time on both routes, so the
    # prequential trajectory is identical to the last bit.
    assert attacker.predictions == reference.predictions
    assert attacker.windows_trained == reference.windows_trained > 0
    assert_same_telemetry(metrics, reference_metrics)


# -- stored corpora ----------------------------------------------------------


def test_from_store_equals_in_memory_replay(tiny_corpus, tmp_path):
    from repro.storage import write_traces

    traces = [trace for label in sorted(tiny_corpus) for trace in tiny_corpus[label]]
    store = write_traces(
        str(tmp_path / "parity.store"),
        [(trace, {"station": f"sta{index}"}) for index, trace in enumerate(traces)],
    )
    in_memory = [
        [(trace, f"sta{index}", trace.label, 0.0)] for index, trace in enumerate(traces)
    ]
    with chunk_size(500):
        _, off_disk, disk_metrics = chunk_route(PacketStream.from_store(store), 5.0)
        _, from_ram, ram_metrics = chunk_route(stream_of(in_memory), 5.0)
    _, expected, _ = event_route(heap_order(in_memory), 5.0)
    assert len(off_disk) > 100
    assert_same_windows(off_disk, from_ram)
    assert_same_windows(off_disk, expected)
    assert disk_metrics.counters == ram_metrics.counters
    assert disk_metrics.gauges == ram_metrics.gauges


# -- plan sources ------------------------------------------------------------

#: Every fusable single scheme the streaming replay evaluates, with a
#: short pseudonym epoch so generated traces span several pseudonyms.
PLAN_SCHEMES = {
    "fh": SchemeSpec("fh"),
    "ra": SchemeSpec("ra"),
    "rr": SchemeSpec("rr"),
    "or": SchemeSpec("or"),
    "padding": SchemeSpec("padding"),
    "pseudonym": SchemeSpec("pseudonym", (("epoch", 2.0),)),
}


@st.composite
def evaluation_traces(draw):
    """One to three labelled traces on a quarter-second lattice.

    Several packets share each timestamp, so equal times routinely land
    in different flows of one plan.
    """
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 60))
        ticks = np.cumsum(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        traces.append(
            Trace.from_arrays(
                0.25 * (draw(st.integers(0, 8)) + ticks.astype(np.float64)),
                draw(st.lists(st.integers(1, 1576), min_size=n, max_size=n)),
                draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)),
                label=draw(st.sampled_from(["uploading", "downloading", "browsing"])),
            )
        )
    return traces


def plan_sources(scheme, traces):
    """One plan source per trace, its flows numbered across traces."""
    streams, flow_index = [], 0
    for trace in traces:
        plan = scheme.fused_plan(trace)
        stations = [f"f{flow_index + f}" for f in range(plan.n_flows)]
        streams.append(PacketStream.replay_plan(trace, plan, stations))
        flow_index += plan.n_flows
    return PacketStream.merge(streams)


def flow_sources(scheme, traces):
    """The reference: one replay per materialized observable flow."""
    streams, flow_index = [], 0
    for trace in traces:
        for flow in scheme.apply(trace).observable_flows:
            streams.append(
                PacketStream.replay(flow, station=f"f{flow_index}", label=trace.label)
            )
            flow_index += 1
    # Partitioning schemes emit no flow for an empty trace.
    return PacketStream.merge(streams) if streams else PacketStream(())


def per_station(closed):
    grouped = {}
    for window in closed:
        grouped.setdefault(window.flow, []).append(window)
    return grouped


@given(
    traces=evaluation_traces(),
    scheme=st.sampled_from(sorted(PLAN_SCHEMES)),
    size=CHUNK_SIZES,
    window=windows,
)
@settings(max_examples=120, deadline=None)
def test_plan_sources_close_the_windows_of_materialized_flows(
    traces, scheme, size, window
):
    built = build_stack([PLAN_SCHEMES[scheme]], seed=7)
    with chunk_size(size):
        _, ours, _ = chunk_route(plan_sources(built, traces), window)
        _, expected, _ = chunk_route(flow_sources(built, traces), window)
    ours, expected = per_station(ours), per_station(expected)
    assert ours.keys() == expected.keys()
    for station in expected:
        assert_same_windows(ours[station], expected[station])


@pytest.mark.parametrize("scheme", sorted(PLAN_SCHEMES))
def test_plan_source_ties_keep_capture_order_and_per_station_order(scheme):
    """Packets come in pairs with equal times and unequal sizes, so a
    size- or turn-based scheduler splits each pair across flows."""
    rng = np.random.default_rng(3)
    n = 400
    times = np.repeat(np.cumsum(rng.integers(1, 4, n // 2)) * 0.05, 2)
    sizes = np.where(np.arange(n) % 2, 1500, rng.integers(40, 200, n))
    trace = Trace.from_arrays(
        times, sizes, rng.choice([0, 1], n), label="uploading"
    )
    built = build_stack([PLAN_SCHEMES[scheme]], seed=7)
    plan = built.fused_plan(trace)
    if scheme in ("or", "rr"):
        ties = (np.diff(trace.times) == 0) & (np.diff(plan.assignments) != 0)
        assert ties.any()
    with chunk_size(64):
        ours = list(plan_sources(built, [trace]))
        reference = list(flow_sources(built, [trace]))
    # Capture order: the plan source emits the trace's packets in place.
    assert [event.time for event in ours] == trace.times.tolist()
    for station in {event.station for event in reference}:
        assert [e for e in ours if e.station == station] == [
            e for e in reference if e.station == station
        ]
    _, closed, _ = chunk_route(plan_sources(built, [trace]), 1.0)
    _, expected, _ = chunk_route(flow_sources(built, [trace]), 1.0)
    ours, expected = per_station(closed), per_station(expected)
    assert ours.keys() == expected.keys()
    for station in expected:
        assert_same_windows(ours[station], expected[station])


def test_plan_source_needs_one_station_per_flow():
    trace = Trace.from_arrays(np.arange(6) * 0.5, [100, 1500] * 3)
    plan = build_stack("or", seed=7).fused_plan(trace)
    with pytest.raises(ValueError, match="one station per plan flow"):
        PacketStream.replay_plan(trace, plan, ["only"] * (plan.n_flows + 1))


def test_plan_source_error_names_the_flow_of_a_bad_time():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    trace = Trace.from_arrays(times, [100, 1500, 100, 1500])
    plan = build_stack("or", seed=7).fused_plan(trace)
    stations = [f"f{f}" for f in range(plan.n_flows)]
    stream = PacketStream.replay_plan(trace, plan, stations)
    # Corrupt the source column after validation (as a stale memmap
    # could): the merge names the station of the offending packet.
    stream._sources[0].times[2] = np.nan
    with pytest.raises(ValueError, match=rf"station 'f{plan.assignments[2]}'"):
        list(stream)
