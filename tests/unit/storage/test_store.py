"""Tests for the columnar on-disk trace store."""

import json
import mmap
import os

import numpy as np
import pytest

from repro import obs
from repro.storage import (
    COLUMN_DTYPES,
    FORMAT_VERSION,
    StoreFormatError,
    TraceStore,
    TraceStoreWriter,
    load_manifest,
    write_traces,
)
from repro.traffic.apps import AppType
from repro.traffic.trace import Trace


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "corpus.store")


@pytest.fixture(scope="module")
def app_traces(generator):
    return [
        generator.generate(app, duration=20.0, session=s)
        for app in (AppType.CHATTING, AppType.GAMING)
        for s in range(2)
    ]


def assert_traces_bitwise_equal(left: Trace, right: Trace) -> None:
    for column in ("times", "sizes", "directions", "ifaces", "channels", "rssi"):
        assert getattr(left, column).tobytes() == getattr(right, column).tobytes(), column
    assert left.label == right.label
    assert left.meta == right.meta


class TestRoundTrip:
    def test_columns_labels_and_meta_survive(self, app_traces, store_path):
        store = write_traces(store_path, app_traces)
        assert len(store) == len(app_traces)
        assert store.packets == sum(len(t) for t in app_traces)
        for original, loaded in zip(app_traces, store):
            assert_traces_bitwise_equal(original, loaded)

    def test_entry_roles_and_stations(self, app_traces, store_path):
        store = write_traces(
            store_path,
            [
                (trace, {"role": "train" if i % 2 == 0 else "eval",
                         "station": f"sta{i}"})
                for i, trace in enumerate(app_traces)
            ],
        )
        assert [e.role for e in store.entries()] == ["train", "eval"] * 2
        assert [e.station for e in store.entries()] == [f"sta{i}" for i in range(4)]
        assert [e.role for e in store.select(role="eval")] == ["eval", "eval"]
        by_label = store.traces_by_label(role="train")
        assert set(by_label) == {"chatting", "gaming"}

    def test_simple_trace_and_label_none(self, simple_trace, store_path):
        unlabeled = simple_trace.with_label(None)
        store = write_traces(store_path, [simple_trace, unlabeled])
        assert store.trace(0).label == "test"
        assert store.trace(1).label is None
        assert store.labels() == ("test",)
        assert_traces_bitwise_equal(unlabeled, store.trace(1))

    def test_traces_by_label_skips_unlabeled(self, simple_trace, store_path):
        # Regression: unlabeled entries used to leak in under a None
        # key, which labels() never reports and training code would
        # treat as a phantom class.
        store = write_traces(
            store_path, [simple_trace, simple_trace.with_label(None)]
        )
        by_label = store.traces_by_label()
        assert set(by_label) == {"test"}
        assert None not in by_label
        assert len(by_label["test"]) == 1

    def test_schemes_recipe_round_trips(self, simple_trace, store_path):
        schemes = [{"scheme": "padding", "params": {"block": 128}}]
        store = write_traces(store_path, [simple_trace], schemes=schemes)
        assert store.schemes == schemes
        assert load_manifest(store_path)["schemes"] == schemes
        (spec,) = store.scheme_specs()
        assert spec.scheme == "padding"

    def test_schemes_key_absent_when_not_provided(self, simple_trace, store_path):
        store = write_traces(store_path, [simple_trace])
        assert "schemes" not in load_manifest(store_path)
        assert store.scheme_specs() == ()

    def test_empty_trace_and_empty_store(self, store_path, tmp_path):
        store = write_traces(store_path, [Trace.empty(label="nothing")])
        assert len(store) == 1
        assert len(store.trace(0)) == 0
        assert store.trace(0).label == "nothing"
        empty = write_traces(str(tmp_path / "empty.store"), [])
        assert len(empty) == 0 and empty.packets == 0

    def test_rssi_nan_payload_bit_exact(self, store_path):
        trace = Trace.from_arrays(
            times=[0.0, 1.0, 2.0],
            sizes=[10, 20, 30],
            rssi=[-40.0, float("nan"), -62.5],
        )
        store = write_traces(store_path, [trace])
        assert store.trace(0).rssi.tobytes() == trace.rssi.tobytes()
        assert np.isnan(store.trace(0).rssi[1])

    def test_reopen_is_idempotent(self, app_traces, store_path):
        write_traces(store_path, app_traces)
        first = TraceStore.open(store_path)
        second = TraceStore.open(store_path)
        for a, b in zip(first, second):
            assert_traces_bitwise_equal(a, b)
        assert first.entries() == second.entries()

    def test_validate_passes_on_real_corpus(self, app_traces, store_path):
        write_traces(store_path, app_traces).validate()

    @pytest.mark.parametrize("position", [0, 1, -1])
    def test_validate_rejects_non_finite_times(self, app_traces, store_path, position):
        store = write_traces(store_path, app_traces)
        entry = store.entries()[1]
        store.close()
        times = np.memmap(
            os.path.join(store_path, "times.bin"), dtype=COLUMN_DTYPES["times"],
            mode="r+",
        )
        times[entry.offset + position % entry.count] = np.nan
        times.flush()
        del times
        with pytest.raises(StoreFormatError, match="trace 1: .*finite"):
            TraceStore.open(store_path).validate()

    @pytest.mark.parametrize("value", [2, -1, 127])
    def test_validate_rejects_a_corrupt_direction(self, app_traces, store_path, value):
        store = write_traces(store_path, app_traces)
        entry = store.entries()[1]
        store.close()
        directions = np.memmap(
            os.path.join(store_path, "directions.bin"),
            dtype=COLUMN_DTYPES["directions"],
            mode="r+",
        )
        directions[entry.offset + 3] = value
        directions.flush()
        del directions
        with pytest.raises(
            StoreFormatError, match=rf"trace 1: packet 3 has direction {value}, not 0"
        ):
            TraceStore.open(store_path).validate()


class TestZeroCopy:
    def test_traces_are_memmap_views(self, app_traces, store_path):
        store = write_traces(store_path, app_traces)
        trace = store.trace(1)
        buffers = {
            np.asarray(getattr(trace, c)).base is not None
            or isinstance(getattr(trace, c), np.memmap)
            for c in ("times", "sizes", "directions")
        }
        assert buffers == {True}

    def test_maps_are_read_only(self, app_traces, store_path):
        store = write_traces(store_path, app_traces)
        with pytest.raises(ValueError):
            store.trace(0).times[0] = 123.0

    def test_trace_identity_stable_for_caches(self, app_traces, store_path):
        store = write_traces(store_path, app_traces)
        assert store.trace(2) is store.trace(2)

    def test_closed_store_refuses_access(self, app_traces, store_path):
        store = write_traces(store_path, app_traces)
        handed_out = store.trace(0)
        with store:
            pass  # context exit closes
        with pytest.raises(RuntimeError, match="closed"):
            store.trace(1)
        # Views already handed out stay alive (numpy pins the buffer).
        assert float(handed_out.times[0]) >= 0.0


@pytest.fixture(scope="module")
def bulk_traces(generator):
    """Traces whose wider columns span whole pages, between small ones."""
    return [
        generator.generate(app, duration=duration)
        for app, duration in (
            (AppType.CHATTING, 20.0),
            (AppType.DOWNLOADING, 5.0),
            (AppType.VIDEO, 10.0),
            (AppType.DOWNLOADING, 3.0),
        )
    ]


def interior_bytes(entry) -> int:
    """Bytes of the pages lying wholly inside ``entry``'s column ranges."""
    total = 0
    for dtype in COLUMN_DTYPES.values():
        itemsize = np.dtype(dtype).itemsize
        lo = entry.offset * itemsize
        hi = (entry.offset + entry.count) * itemsize
        first = -(-lo // mmap.PAGESIZE) * mmap.PAGESIZE
        last = hi // mmap.PAGESIZE * mmap.PAGESIZE
        total += max(0, last - first)
    return total


def resident_kib(path: str) -> int:
    """This process's resident KiB of the mappings of file ``path``."""
    total, current = 0, False
    with open("/proc/self/smaps", encoding="utf-8") as smaps:
        for line in smaps:
            fields = line.split()
            if fields and "-" in fields[0] and not fields[0].endswith(":"):
                current = fields[-1] == path
            elif current and fields[0] == "Rss:":
                total += int(fields[1])
    return total


class TestEvict:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps"
    )
    def test_eviction_gives_the_pages_back(self, bulk_traces, store_path):
        store = write_traces(store_path, bulk_traces)
        column = os.path.realpath(os.path.join(store_path, "times.bin"))
        for trace in store:
            trace.times.sum()  # fault every page in
        assert resident_kib(column) * 1024 >= store.packets * 8 // mmap.PAGESIZE * mmap.PAGESIZE
        for index in range(len(store)):
            store.evict(index)
        # Only the pages two traces share, and the file's partial last
        # page, may stay resident.
        assert resident_kib(column) * 1024 <= len(store) * mmap.PAGESIZE

    def test_evicted_traces_read_back_bit_identical(self, bulk_traces, store_path):
        store = write_traces(store_path, bulk_traces)
        held = [store.trace(i) for i in range(len(store))]
        for trace in held:
            trace.times.sum()  # fault the pages in
        for index in range(len(store)):
            store.evict(index)
        fresh = TraceStore.open(store_path)
        for index, trace in enumerate(held):
            assert store.trace(index) is trace
            assert_traces_bitwise_equal(trace, fresh.trace(index))
            assert_traces_bitwise_equal(trace, bulk_traces[index])

    def test_columns_stay_memmaps(self, bulk_traces, store_path):
        store = write_traces(store_path, bulk_traces)
        store.evict(0)
        assert all(isinstance(column, np.memmap) for column in store._columns.values())

    def test_repeated_eviction_is_harmless(self, bulk_traces, store_path):
        store = write_traces(store_path, bulk_traces)
        trace = store.trace(1)
        for _ in range(3):
            store.evict(1)
            assert_traces_bitwise_equal(trace, bulk_traces[1])
        assert store.trace(1) is trace

    def test_evicted_bytes_are_the_page_aligned_interior(self, bulk_traces, store_path):
        store = write_traces(store_path, bulk_traces)
        with obs.capture() as cap:
            for index in range(len(store)):
                store.evict(index)
        expected = sum(interior_bytes(entry) for entry in store.entries())
        assert expected > 0
        assert cap.metrics.counters["proc.store.evicted_bytes"] == expected

    def test_without_madvise_evict_is_a_no_op(
        self, bulk_traces, store_path, monkeypatch
    ):
        store = write_traces(store_path, bulk_traces)
        monkeypatch.delattr(mmap, "MADV_DONTNEED")
        with obs.capture() as cap:
            store.evict(0)
        assert "proc.store.evicted_bytes" not in cap.metrics.counters
        assert_traces_bitwise_equal(store.trace(0), bulk_traces[0])

    def test_closed_and_empty_stores_evict_nothing(self, bulk_traces, tmp_path):
        closed = write_traces(str(tmp_path / "closed.store"), bulk_traces)
        closed.close()
        empty = write_traces(str(tmp_path / "empty.store"), [Trace.empty("none")])
        with obs.capture() as cap:
            closed.evict(0)
            empty.evict(0)
        assert "proc.store.evicted_bytes" not in cap.metrics.counters


class TestChunkedWriter:
    def test_chunked_append_equals_one_shot(self, simple_trace, tmp_path):
        one_shot = write_traces(str(tmp_path / "a.store"), [simple_trace])
        with TraceStoreWriter(str(tmp_path / "b.store")) as writer:
            writer.begin_trace(label=simple_trace.label, meta=simple_trace.meta)
            half = len(simple_trace) // 2
            for sl in (slice(None, half), slice(half, None)):
                writer.append_columns(
                    simple_trace.times[sl], simple_trace.sizes[sl],
                    simple_trace.directions[sl], simple_trace.ifaces[sl],
                    simple_trace.channels[sl], simple_trace.rssi[sl],
                )
            writer.end_trace()
        chunked = TraceStore.open(str(tmp_path / "b.store"))
        assert_traces_bitwise_equal(one_shot.trace(0), chunked.trace(0))

    def test_unsorted_chunk_rejected(self, store_path):
        with pytest.raises(ValueError, match="sorted"):
            with TraceStoreWriter(store_path) as writer:
                writer.begin_trace()
                writer.append_columns([2.0, 1.0], [10, 10])

    def test_chunk_boundary_regression_rejected(self, store_path):
        with pytest.raises(ValueError, match="before the previous chunk"):
            with TraceStoreWriter(store_path) as writer:
                writer.begin_trace()
                writer.append_columns([0.0, 5.0], [10, 10])
                writer.append_columns([4.0], [10])

    def test_bad_sizes_and_negative_times_rejected(self, store_path, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            with TraceStoreWriter(store_path) as writer:
                writer.begin_trace()
                writer.append_columns([0.0], [0])
        with pytest.raises(ValueError, match="non-negative"):
            with TraceStoreWriter(str(tmp_path / "neg.store")) as writer:
                writer.begin_trace()
                writer.append_columns([-1.0], [10])

    @pytest.mark.parametrize(
        "times", [[0.0, float("nan"), 2.0], [float("nan")], [0.0, 1.0, float("inf")]]
    )
    def test_non_finite_times_rejected(self, store_path, times):
        with pytest.raises(ValueError, match="trace 0.*finite"):
            with TraceStoreWriter(store_path) as writer:
                writer.begin_trace()
                writer.append_columns(times, [10] * len(times))

    def test_mismatched_column_length_rejected(self, store_path):
        with pytest.raises(ValueError, match="length"):
            with TraceStoreWriter(store_path) as writer:
                writer.begin_trace()
                writer.append_columns([0.0, 1.0], [10, 10], directions=[0])

    def test_append_without_begin_raises(self, store_path):
        with TraceStoreWriter(store_path) as writer:
            with pytest.raises(RuntimeError, match="begin_trace"):
                writer.append_columns([0.0], [10])

    def test_close_with_open_trace_refuses_to_seal_silently(
        self, simple_trace, store_path
    ):
        # Regression: close() used to auto-seal a still-open trace,
        # committing a possibly half-written build as valid.
        writer = TraceStoreWriter(store_path)
        writer.begin_trace(label="half")
        writer.append_columns([0.0], [10])
        with pytest.raises(RuntimeError, match="still open"):
            writer.close()
        # The build is still recoverable: sealing explicitly commits.
        writer.end_trace()
        writer.close()
        assert TraceStore.open(store_path).trace(0).label == "half"

    def test_aborted_writer_leaves_no_store(self, simple_trace, store_path):
        with pytest.raises(RuntimeError, match="boom"):
            with TraceStoreWriter(store_path) as writer:
                writer.add(simple_trace)
                raise RuntimeError("boom")
        with pytest.raises(StoreFormatError, match="not a trace store"):
            TraceStore.open(store_path)


class TestFormatGuards:
    def test_existing_store_needs_overwrite(self, simple_trace, store_path):
        write_traces(store_path, [simple_trace])
        with pytest.raises(FileExistsError):
            TraceStoreWriter(store_path)
        replaced = write_traces(store_path, [simple_trace], overwrite=True)
        assert len(replaced) == 1

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreFormatError, match="not a trace store"):
            TraceStore.open(str(tmp_path))

    def test_interrupted_overwrite_invalidates_old_store(
        self, simple_trace, store_path
    ):
        write_traces(store_path, [simple_trace])
        # Overwriting truncates columns immediately; the OLD manifest
        # must already be gone so a crash here (writer never closed)
        # leaves "not a trace store", never stale metadata over fresh
        # column bytes.
        writer = TraceStoreWriter(store_path, overwrite=True)
        with pytest.raises(StoreFormatError, match="not a trace store"):
            TraceStore.open(store_path)
        writer.abort()

    def test_malformed_manifests_raise_store_format_error(
        self, simple_trace, store_path
    ):
        write_traces(store_path, [simple_trace])
        manifest_path = os.path.join(store_path, "manifest.json")
        good = open(manifest_path).read()
        for breakage in (
            "[1, 2]",                      # not a dict
            "{not json",                   # invalid JSON
            good.replace('"packets"', '"paquets"'),   # missing key
        ):
            open(manifest_path, "w").write(breakage)
            with pytest.raises(StoreFormatError):
                TraceStore.open(store_path)
        manifest = json.loads(good)
        del manifest["traces"][0]["offset"]  # malformed entry record
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="malformed manifest"):
            TraceStore.open(store_path)

    def test_future_version_refused(self, simple_trace, store_path):
        write_traces(store_path, [simple_trace])
        manifest_path = os.path.join(store_path, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["version"] = FORMAT_VERSION + 1
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="not supported"):
            TraceStore.open(store_path)

    def test_truncated_column_refused(self, simple_trace, store_path):
        write_traces(store_path, [simple_trace])
        times_path = os.path.join(store_path, "times.bin")
        with open(times_path, "r+b") as handle:
            handle.truncate(os.path.getsize(times_path) - 8)
        with pytest.raises(StoreFormatError, match="times.bin"):
            TraceStore.open(store_path)

    def test_inconsistent_offsets_refused(self, simple_trace, store_path):
        write_traces(store_path, [simple_trace])
        manifest_path = os.path.join(store_path, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["traces"][0]["offset"] = 3
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="contiguous"):
            TraceStore.open(store_path)

    def test_negative_count_named_distinctly(self, simple_trace, store_path):
        # Regression: a negative count used to surface as a confusing
        # offset-mismatch on the *next* entry; it now gets its own
        # diagnosis naming the bad entry.
        write_traces(store_path, [simple_trace])
        manifest_path = os.path.join(store_path, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["traces"][0]["count"] = -8
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(
            StoreFormatError, match=r"trace 0 declares a negative packet count"
        ):
            TraceStore.open(store_path)

    def test_load_manifest_exposes_recipe(self, simple_trace, store_path):
        write_traces(store_path, [simple_trace], scenario={"seed": 3})
        manifest = load_manifest(store_path)
        assert manifest["scenario"] == {"seed": 3}
        assert set(manifest["columns"]) == set(COLUMN_DTYPES)

    def test_unserializable_meta_raises_informatively(self, store_path):
        trace = Trace.from_arrays([0.0], [10], meta={"oops": float("nan")})
        with pytest.raises(ValueError, match="JSON-serializable"):
            with TraceStoreWriter(store_path) as writer:
                writer.add(trace)
