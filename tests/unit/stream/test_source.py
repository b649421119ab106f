"""Tests for packet streams: replay order, merge determinism, validation."""

import numpy as np
import pytest

from repro.stream import PacketEvent, PacketStream
from repro.traffic.trace import Trace, merge_traces


def _trace(times, sizes=None, directions=None, label=None):
    times = list(times)
    return Trace.from_arrays(
        times,
        sizes if sizes is not None else [100] * len(times),
        directions if directions is not None else [0] * len(times),
        label=label,
    )


class TestReplay:
    def test_yields_every_packet_in_order(self):
        trace = _trace([0.0, 0.5, 1.5], sizes=[10, 20, 30], directions=[0, 1, 0])
        events = list(PacketStream.replay(trace, station="a"))
        assert [e.time for e in events] == [0.0, 0.5, 1.5]
        assert [e.size for e in events] == [10, 20, 30]
        assert [e.direction for e in events] == [0, 1, 0]
        assert all(e.station == "a" for e in events)

    def test_label_defaults_to_trace_label(self):
        trace = _trace([0.0], label="browsing")
        (event,) = list(PacketStream.replay(trace))
        assert event.label == "browsing"
        (event,) = list(PacketStream.replay(trace, label="other"))
        assert event.label == "other"

    def test_offset_shifts_timestamps(self):
        trace = _trace([0.0, 1.0])
        events = list(PacketStream.replay(trace, offset=10.0))
        assert [e.time for e in events] == [10.0, 11.0]

    def test_empty_trace_yields_nothing(self):
        assert list(PacketStream.replay(Trace.empty())) == []

    def test_replay_is_lazy(self):
        """The stream is a cursor; consuming one event reads one packet."""
        trace = _trace(np.arange(1000, dtype=float))
        iterator = iter(PacketStream.replay(trace))
        assert next(iterator).time == 0.0  # no full materialization needed


class TestMerge:
    def test_global_time_order_matches_merge_traces(self):
        first = _trace([0.0, 1.0, 4.0], sizes=[1, 2, 3])
        second = _trace([0.5, 1.0, 2.0], sizes=[4, 5, 6])
        merged = list(
            PacketStream.merge(
                [PacketStream.replay(first, "a"), PacketStream.replay(second, "b")]
            )
        )
        reference = merge_traces([first, second])
        assert [e.time for e in merged] == list(reference.times)
        assert [e.size for e in merged] == list(reference.sizes)

    def test_ties_break_by_stream_order(self):
        first = _trace([1.0], sizes=[1])
        second = _trace([1.0], sizes=[2])
        merged = list(
            PacketStream.merge(
                [PacketStream.replay(first, "a"), PacketStream.replay(second, "b")]
            )
        )
        assert [e.station for e in merged] == ["a", "b"]

    def test_many_stations_interleave(self):
        streams = [
            PacketStream.replay(_trace(np.arange(50) * 3.0 + offset), f"s{offset}")
            for offset in range(5)
        ]
        merged = list(PacketStream.merge(streams))
        assert len(merged) == 250
        times = [e.time for e in merged]
        assert times == sorted(times)

    def test_merge_requires_a_stream(self):
        with pytest.raises(ValueError):
            PacketStream.merge([])

    def test_event_iterables_do_not_merge(self):
        events = PacketStream([PacketEvent(1.0, 10, 0, "a", None)])
        with pytest.raises(TypeError, match="replayed streams"):
            PacketStream.merge([PacketStream.replay(_trace([0.0]), "b"), events])

    def test_merge_of_merges_flattens_in_order(self):
        a, b, c = (_trace([1.0], sizes=[size]) for size in (1, 2, 3))
        nested = PacketStream.merge(
            [
                PacketStream.merge([PacketStream.replay(a, "x"), PacketStream.replay(b, "y")]),
                PacketStream.replay(c, "z"),
            ]
        )
        assert [e.station for e in nested] == ["x", "y", "z"]

    def test_chunks_cover_the_capture_in_order(self):
        streams = [
            PacketStream.replay(_trace(np.arange(50) * 3.0 + offset), f"s{offset}")
            for offset in range(5)
        ]
        chunks = list(PacketStream.merge(streams).chunks())
        times = np.concatenate([chunk.times for chunk in chunks])
        assert len(times) == 250 and np.all(np.diff(times) >= 0)
        assert [e for chunk in chunks for e in chunk.events()] == list(
            PacketStream.merge(streams)
        )


class TestValidation:
    def test_backwards_stream_raises(self):
        events = [
            PacketEvent(1.0, 10, 0, "a", None),
            PacketEvent(0.5, 10, 0, "a", None),
        ]
        with pytest.raises(ValueError, match="backwards"):
            list(PacketStream(events))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_event_time_raises_naming_the_station(self, bad):
        events = [
            PacketEvent(1.0, 10, 0, "a", None),
            PacketEvent(bad, 10, 0, "a", None),
            PacketEvent(0.5, 10, 0, "a", None),
        ]
        with pytest.raises(ValueError, match=r"station 'a' has a non-finite packet time"):
            list(PacketStream(events))

    def test_backwards_event_names_station_and_time(self):
        events = [PacketEvent(1.0, 10, 0, "a", None), PacketEvent(0.5, 10, 0, "a", None)]
        with pytest.raises(ValueError, match=r"station 'a': 0.5 after 1.0"):
            list(PacketStream(events))

    @pytest.mark.parametrize(
        "times, message",
        [
            ([1.0, float("nan"), 0.5], r"station 'b' has a non-finite packet time: nan"),
            ([1.0, float("inf")], r"station 'b' has a non-finite packet time: inf"),
        ],
    )
    def test_column_replay_rejects_non_finite_times(self, times, message):
        # Trace refuses non-finite times, so the bad source bypasses it
        # the way an unchecked column source would.
        n = len(times)
        bad = Trace._trusted(
            np.asarray(times), np.full(n, 100), np.zeros(n, np.int8),
            np.zeros(n, np.int16), np.zeros(n, np.int8), np.zeros(n, np.float32),
            None, {},
        )
        stream = PacketStream.merge(
            [PacketStream.replay(_trace([0.0, 3.0]), "a"), PacketStream.replay(bad, "b")]
        )
        with pytest.raises(ValueError, match=message):
            list(stream)
        with pytest.raises(ValueError, match=message):
            list(stream.chunks())

    def test_column_replay_rejects_a_step_back(self):
        trace = Trace._trusted(
            np.array([1.0, 2.0, 0.5]), np.full(3, 10), np.zeros(3, np.int8),
            np.zeros(3, np.int16), np.zeros(3, np.int8), np.zeros(3, np.float32),
            None, {},
        )
        with pytest.raises(ValueError, match=r"station 'b' went backwards in time: 0.5 after 2.0"):
            list(PacketStream.replay(trace, "b"))

    def test_equal_timestamps_are_fine(self):
        events = [
            PacketEvent(1.0, 10, 0, "a", None),
            PacketEvent(1.0, 10, 0, "a", None),
        ]
        assert len(list(PacketStream(events))) == 2


class TestFromStore:
    """Replaying a persisted corpus must match the in-memory path exactly."""

    @pytest.fixture(scope="class")
    def stored(self, generator, tmp_path_factory):
        from repro.storage import write_traces
        from repro.traffic.apps import AppType

        traces = [
            generator.generate(app, duration=30.0, session=s)
            for app in (AppType.CHATTING, AppType.DOWNLOADING, AppType.GAMING)
            for s in range(2)
        ]
        store = write_traces(
            str(tmp_path_factory.mktemp("stores") / "replay.store"),
            [
                (trace, {"station": f"sta{index}", "role": "eval"})
                for index, trace in enumerate(traces)
            ],
        )
        return traces, store

    def test_events_identical_to_in_memory_merge(self, stored):
        traces, store = stored
        in_memory = PacketStream.merge(
            [
                PacketStream.replay(trace, station=f"sta{index}", label=trace.label)
                for index, trace in enumerate(traces)
            ]
        )
        assert list(PacketStream.from_store(store)) == list(in_memory)

    def test_feature_vectors_identical_to_in_memory_path(self, stored):
        from repro.stream import StreamingFeaturizer

        traces, store = stored
        off_disk, in_memory = StreamingFeaturizer(5.0), StreamingFeaturizer(5.0)
        disk_windows = [
            w
            for chunk in PacketStream.from_store(store).chunks()
            for w in off_disk.push_chunk(chunk)
        ] + off_disk.flush()
        streams = [
            PacketStream.replay(trace, station=f"sta{index}", label=trace.label)
            for index, trace in enumerate(traces)
        ]
        ram_windows = [
            w
            for chunk in PacketStream.merge(streams).chunks()
            for w in in_memory.push_chunk(chunk)
        ] + in_memory.flush()
        assert len(disk_windows) == len(ram_windows) > 0
        for disk, ram in zip(disk_windows, ram_windows):
            assert disk.flow == ram.flow and disk.index == ram.index
            assert np.array_equal(disk.features, ram.features)

    def test_replay_memory_stays_within_open_window_bound(self, stored):
        from repro.analysis.windows import window_edges
        from repro.stream import StreamingFeaturizer

        traces, store = stored
        featurizer = StreamingFeaturizer(5.0)
        for chunk in PacketStream.from_store(store).chunks():
            featurizer.push_chunk(chunk)
        featurizer.flush()
        densest = max(
            int(
                np.diff(
                    np.searchsorted(t.times, window_edges(t.times, 5.0))
                ).max()
            )
            for t in traces
            if len(t)
        )
        assert featurizer.peak_open_packets <= densest * len(traces)
        assert featurizer.open_packets == 0

    def test_accepts_path_and_filters(self, stored, tmp_path):
        traces, store = stored
        from_path = PacketStream.from_store(store.path, label="chatting")
        events = list(from_path)
        assert events and all(e.label == "chatting" for e in events)
        assert list(PacketStream.from_store(store, role="train")) == []

    def test_station_defaults_to_synthetic_identity(self, generator, tmp_path):
        from repro.storage import write_traces
        from repro.traffic.apps import AppType

        trace = generator.generate(AppType.CHATTING, duration=10.0)
        store = write_traces(str(tmp_path / "anon.store"), [trace])
        stations = {e.station for e in PacketStream.from_store(store)}
        assert stations == {"chatting/t0"}
