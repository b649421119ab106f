"""Tests for the sharded corpus federation (`repro-shardset` v1)."""

import hashlib
import json
import mmap
import os

import numpy as np
import pytest

from repro import obs
from repro.storage import (
    COLUMN_DTYPES,
    PLACEMENT_RULE,
    SHARDSET_FORMAT_NAME,
    SHARDSET_MANIFEST_NAME,
    SHARDSET_VERSION,
    ShardSet,
    ShardSetWriter,
    StoreFormatError,
    TraceStore,
    TraceStoreWriter,
    corpus_manifest,
    is_shardset,
    load_shardset_manifest,
    open_corpus,
    shard_for_key,
    write_traces,
)
from repro.storage import shards as shards_module
from repro.traffic.apps import AppType
from repro.traffic.trace import Trace


def assert_traces_bitwise_equal(left: Trace, right: Trace) -> None:
    for column in ("times", "sizes", "directions", "ifaces", "channels", "rssi"):
        assert getattr(left, column).tobytes() == getattr(right, column).tobytes(), column
    assert left.label == right.label
    assert left.meta == right.meta


@pytest.fixture(autouse=True)
def reset_mapped_tracker():
    # The tracker is process-global; tests that hand out federations
    # without closing them must not skew another test's peak gauge.
    shards_module._TRACKER.current = 0
    yield
    shards_module._TRACKER.current = 0


@pytest.fixture
def shards_path(tmp_path):
    return str(tmp_path / "corpus.shards")


@pytest.fixture(scope="module")
def app_traces(generator):
    return [
        generator.generate(app, duration=20.0, session=s)
        for app in (AppType.CHATTING, AppType.GAMING, AppType.BROWSING)
        for s in range(2)
    ]


def build_federation(path, traces, shards=3, **kwargs):
    """Write ``traces`` with station identities sta0..staN-1."""
    with ShardSetWriter(path, shards=shards, **kwargs) as writer:
        for i, trace in enumerate(traces):
            writer.add(
                trace,
                role="train" if i % 2 == 0 else "eval",
                station=f"sta{i}",
            )
    return ShardSet.open(path)


class TestPlacement:
    def test_rule_is_sha256_mod_shards(self):
        # The placement rule is the spec, verbatim: first 8 digest
        # bytes, big-endian, modulo the shard count.
        for key in ("sta0", "sta000042", "odd key é"):
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            expected = int.from_bytes(digest[:8], "big") % 5
            assert shard_for_key(key, 5) == expected

    def test_stable_across_calls_and_in_range(self):
        placements = [shard_for_key(f"sta{i}", 7) for i in range(50)]
        assert placements == [shard_for_key(f"sta{i}", 7) for i in range(50)]
        assert all(0 <= p < 7 for p in placements)
        # A healthy hash spreads 50 keys over more than one shard.
        assert len(set(placements)) > 1

    def test_single_shard_takes_everything(self):
        assert {shard_for_key(f"sta{i}", 1) for i in range(10)} == {0}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            shard_for_key("sta0", 0)
        with pytest.raises(ValueError, match=">= 1"):
            ShardSetWriter("unused", shards=0)


class TestRoundTrip:
    def test_columns_roles_and_stations_survive(self, app_traces, shards_path):
        federation = build_federation(shards_path, app_traces)
        assert len(federation) == len(app_traces)
        assert federation.packets == sum(len(t) for t in app_traces)
        by_station = {e.station: e for e in federation.entries()}
        for i, original in enumerate(app_traces):
            entry = by_station[f"sta{i}"]
            assert_traces_bitwise_equal(original, federation.trace(entry.index))
            assert entry.role == ("train" if i % 2 == 0 else "eval")

    def test_entries_tile_the_federation_contiguously(
        self, app_traces, shards_path
    ):
        federation = build_federation(shards_path, app_traces)
        offset = 0
        for index, entry in enumerate(federation.entries()):
            assert entry.index == index
            assert entry.offset == offset
            offset += entry.count
        assert offset == federation.packets

    def test_every_trace_lands_in_its_hashed_shard(
        self, app_traces, shards_path
    ):
        federation = build_federation(shards_path, app_traces, shards=3)
        for entry in federation.entries():
            expected = shard_for_key(entry.station, 3)
            assert federation.shard_of(entry.index) == expected
            assert federation.station_shard(entry.station) == expected

    def test_explicit_key_overrides_station_for_routing(
        self, simple_trace, shards_path
    ):
        with ShardSetWriter(shards_path, shards=4) as writer:
            shard, _ = writer.add(simple_trace, station="staX", key="appkey")
        assert shard == shard_for_key("appkey", 4)
        federation = ShardSet.open(shards_path)
        assert federation.shard_of(0) == shard
        # The routing key is placement-only; the stored identity is the
        # station.
        assert federation.entry(0).station == "staX"

    def test_anonymous_traces_route_by_insertion_order(
        self, simple_trace, shards_path
    ):
        with ShardSetWriter(shards_path, shards=4) as writer:
            first, _ = writer.add(simple_trace)
            second, _ = writer.add(simple_trace)
        assert first == shard_for_key("trace-0", 4)
        assert second == shard_for_key("trace-1", 4)

    def test_empty_shards_are_valid_members(self, simple_trace, shards_path):
        # One trace over many shards: most members are empty stores.
        with ShardSetWriter(shards_path, shards=5) as writer:
            writer.add(simple_trace, station="sta0")
        federation = ShardSet.open(shards_path)
        assert len(federation) == 1
        assert federation.shard_count == 5
        assert_traces_bitwise_equal(simple_trace, federation.trace(0))
        for index in range(5):
            assert len(TraceStore.open(federation.shard_paths[index])) in (0, 1)

    def test_empty_federation(self, shards_path):
        with ShardSetWriter(shards_path, shards=2):
            pass
        federation = ShardSet.open(shards_path)
        assert len(federation) == 0 and federation.packets == 0
        assert federation.labels() == ()


class TestMergedViews:
    def test_select_and_labels(self, app_traces, shards_path):
        federation = build_federation(shards_path, app_traces)
        train = list(federation.select(role="train"))
        assert len(train) == 3 and all(e.role == "train" for e in train)
        assert set(federation.labels()) == {"chatting", "gaming", "browsing"}
        by_label = federation.traces_by_label(role="train")
        assert sum(len(v) for v in by_label.values()) == 3

    def test_traces_by_label_skips_unlabeled(self, simple_trace, shards_path):
        with ShardSetWriter(shards_path, shards=2) as writer:
            writer.add(simple_trace, station="sta0")
            writer.add(simple_trace.with_label(None), station="sta1")
        federation = ShardSet.open(shards_path)
        by_label = federation.traces_by_label()
        assert set(by_label) == {"test"}
        assert None not in by_label
        assert federation.labels() == ("test",)

    def test_iteration_matches_indexing(self, app_traces, shards_path):
        federation = build_federation(shards_path, app_traces)
        for index, trace in enumerate(federation):
            assert_traces_bitwise_equal(trace, federation[index])

    def test_nbytes_accounting(self, app_traces, shards_path):
        federation = build_federation(shards_path, app_traces, shards=3)
        assert federation.nbytes == federation.packets * 24
        assert sum(
            federation.shard_nbytes(i) for i in range(3)
        ) == federation.nbytes


class TestLazyMapping:
    def test_open_maps_nothing_and_access_maps_one_shard(
        self, app_traces, shards_path
    ):
        build_federation(shards_path, app_traces, shards=3).close()
        with obs.capture() as cap:
            federation = ShardSet.open(shards_path)
            assert cap.metrics.counters.get("proc.shard.opens", 0) == 0
            # Touch one trace: exactly its member store maps.
            target = federation.shard_of(0)
            federation.trace(0)
            assert cap.metrics.counters["proc.shard.opens"] == 1
            assert cap.metrics.gauges["shards.bytes_mapped_peak"] == (
                federation.shard_nbytes(target)
            )
            federation.close()

    def test_walk_with_release_bounds_peak_at_one_shard(
        self, app_traces, shards_path
    ):
        federation = build_federation(shards_path, app_traces, shards=3)
        federation.release()
        per_shard = [federation.shard_nbytes(i) for i in range(3)]
        with obs.capture() as cap:
            for index in range(len(federation)):
                federation.trace(index)
                federation.release()
            walked = cap.metrics.gauges["shards.bytes_mapped_peak"]
        assert walked == max(per_shard)
        with obs.capture() as cap:
            for index in range(len(federation)):
                federation.trace(index)  # no release: all shards stay mapped
            resident = cap.metrics.gauges["shards.bytes_mapped_peak"]
        assert resident == sum(per_shard)
        federation.close()

    def test_shared_member_mapping_is_cached(self, app_traces, shards_path):
        federation = build_federation(shards_path, app_traces, shards=2)
        shard = federation.shard_of(0)
        assert federation.shard(shard) is federation.shard(shard)
        federation.close()

    def test_closed_federation_refuses_access(self, app_traces, shards_path):
        federation = build_federation(shards_path, app_traces)
        with federation:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            federation.trace(0)


class TestEvict:
    @pytest.fixture(scope="class")
    def bulk_traces(self, generator):
        return [
            generator.generate(app, duration=duration, session=s)
            for s, (app, duration) in enumerate(
                (
                    (AppType.DOWNLOADING, 5.0),
                    (AppType.CHATTING, 20.0),
                    (AppType.DOWNLOADING, 3.0),
                    (AppType.VIDEO, 10.0),
                )
            )
        ]

    @staticmethod
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

    def test_evicted_traces_read_back_bit_identical(self, bulk_traces, shards_path):
        federation = build_federation(shards_path, bulk_traces, shards=2)
        held = [federation.trace(i) for i in range(len(federation))]
        for index in range(len(federation)):
            federation.evict(index)
            federation.evict(index)  # repeated eviction is harmless
        fresh = ShardSet.open(shards_path)
        for index, trace in enumerate(held):
            assert federation.trace(index) is trace
            assert_traces_bitwise_equal(trace, fresh.trace(index))
        fresh.close()
        federation.close()

    def test_evicted_bytes_sum_the_members_interiors(self, bulk_traces, shards_path):
        federation = build_federation(shards_path, bulk_traces, shards=2)
        for index in range(len(federation)):
            federation.trace(index)  # map every member
        with obs.capture() as cap:
            for index in range(len(federation)):
                federation.evict(index)
        expected = sum(
            self.interior_bytes(entry)
            for shard in range(federation.shard_count)
            for entry in federation.shard(shard).entries()
        )
        assert expected > 0
        assert cap.metrics.counters["proc.store.evicted_bytes"] == expected
        federation.close()

    def test_an_unmapped_member_is_not_opened_to_evict(
        self, bulk_traces, shards_path
    ):
        federation = build_federation(shards_path, bulk_traces, shards=2)
        federation.release()
        with obs.capture() as cap:
            federation.evict(0)
        assert "proc.shard.opens" not in cap.metrics.counters
        assert "proc.store.evicted_bytes" not in cap.metrics.counters
        federation.close()


class TestValidate:
    def test_validate_scans_one_member_at_a_time(self, app_traces, shards_path):
        federation = build_federation(shards_path, app_traces, shards=3)
        federation.release()
        with obs.capture() as cap:
            federation.validate()
            peak = cap.metrics.gauges["shards.bytes_mapped_peak"]
        assert peak == max(federation.shard_nbytes(i) for i in range(3))
        assert shards_module._TRACKER.current == 0  # every member released
        federation.close()

    def test_validate_names_the_global_trace_of_a_stray_direction(
        self, app_traces, shards_path
    ):
        federation = build_federation(shards_path, app_traces, shards=3)
        # A trace that is not its member's first, so its global index
        # differs from its member-local one.
        index = next(
            i for i in range(1, len(federation))
            if federation.shard_of(i) == federation.shard_of(i - 1)
        )
        shard = federation.shard_of(index)
        local = index - min(
            i for i in range(len(federation)) if federation.shard_of(i) == shard
        )
        member = federation.shard_paths[shard]
        offset = federation.shard(shard).entry(local).offset
        federation.close()
        directions = np.memmap(
            os.path.join(member, "directions.bin"),
            dtype=COLUMN_DTYPES["directions"],
            mode="r+",
        )
        directions[offset + 3] = 7
        directions.flush()
        del directions
        federation = ShardSet.open(shards_path)
        with pytest.raises(
            StoreFormatError, match=rf"trace {index}: packet 3 has direction 7, not 0"
        ):
            federation.validate()
        assert shards_module._TRACKER.current == 0


class TestFormatGuards:
    def test_missing_manifest_is_not_a_shard_set(self, tmp_path):
        assert not is_shardset(str(tmp_path))
        with pytest.raises(StoreFormatError, match="not a shard set"):
            ShardSet.open(str(tmp_path))

    def test_store_path_refused_by_shard_writer(self, simple_trace, tmp_path):
        store_path = str(tmp_path / "single.store")
        write_traces(store_path, [simple_trace])
        with pytest.raises(FileExistsError, match="single trace store"):
            ShardSetWriter(store_path, shards=2)

    def test_shardset_path_refused_by_store_writer(
        self, simple_trace, shards_path
    ):
        build_federation(shards_path, [simple_trace], shards=2).close()
        with pytest.raises(FileExistsError, match="federation"):
            TraceStoreWriter(shards_path)
        # Even overwrite=True: a store must never silently replace a
        # federation in place.
        with pytest.raises(FileExistsError, match="federation"):
            TraceStoreWriter(shards_path, overwrite=True)

    def test_existing_federation_needs_overwrite(
        self, simple_trace, shards_path
    ):
        build_federation(shards_path, [simple_trace], shards=2).close()
        with pytest.raises(FileExistsError, match="overwrite"):
            ShardSetWriter(shards_path, shards=2)
        replaced = build_federation(
            shards_path, [simple_trace, simple_trace], shards=3, overwrite=True
        )
        assert len(replaced) == 2 and replaced.shard_count == 3
        replaced.close()

    def test_interrupted_overwrite_invalidates_old_federation(
        self, simple_trace, shards_path
    ):
        build_federation(shards_path, [simple_trace], shards=2).close()
        writer = ShardSetWriter(shards_path, shards=2, overwrite=True)
        # The old federation manifest is already gone: a crash here
        # leaves "not a shard set", never stale metadata.
        assert not is_shardset(shards_path)
        writer.abort()
        with pytest.raises(StoreFormatError, match="not a shard set"):
            ShardSet.open(shards_path)

    def test_aborted_build_leaves_no_federation(self, simple_trace, shards_path):
        with pytest.raises(RuntimeError, match="boom"):
            with ShardSetWriter(shards_path, shards=2) as writer:
                writer.add(simple_trace, station="sta0")
                raise RuntimeError("boom")
        assert not is_shardset(shards_path)

    def test_closed_writer_refuses_further_adds(self, simple_trace, shards_path):
        writer = ShardSetWriter(shards_path, shards=2)
        writer.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.add(simple_trace)


class TestManifestValidation:
    @pytest.fixture
    def federation_path(self, app_traces, shards_path):
        build_federation(shards_path, app_traces, shards=2).close()
        return shards_path

    def manifest(self, path):
        with open(os.path.join(path, SHARDSET_MANIFEST_NAME)) as stream:
            return json.load(stream)

    def nonempty_member(self, path):
        """A member directory that actually holds at least one trace."""
        federation = ShardSet.open(path)
        member = federation.shard_paths[federation.shard_of(0)]
        federation.close()
        return member

    def rewrite(self, path, manifest):
        with open(os.path.join(path, SHARDSET_MANIFEST_NAME), "w") as stream:
            json.dump(manifest, stream)

    def test_invalid_json_refused(self, federation_path):
        with open(
            os.path.join(federation_path, SHARDSET_MANIFEST_NAME), "w"
        ) as stream:
            stream.write("{not json")
        with pytest.raises(StoreFormatError, match="not valid JSON"):
            ShardSet.open(federation_path)

    def test_wrong_format_discriminator_refused(self, federation_path):
        manifest = self.manifest(federation_path)
        manifest["format"] = "something-else"
        self.rewrite(federation_path, manifest)
        with pytest.raises(StoreFormatError, match=SHARDSET_FORMAT_NAME):
            ShardSet.open(federation_path)

    def test_future_version_refused(self, federation_path):
        manifest = self.manifest(federation_path)
        manifest["version"] = SHARDSET_VERSION + 1
        self.rewrite(federation_path, manifest)
        with pytest.raises(StoreFormatError, match="not supported"):
            ShardSet.open(federation_path)

    def test_unknown_placement_rule_refused(self, federation_path):
        manifest = self.manifest(federation_path)
        manifest["placement"]["rule"] = "station-hash-md5"
        self.rewrite(federation_path, manifest)
        with pytest.raises(StoreFormatError, match="placement rule"):
            ShardSet.open(federation_path)

    def test_member_list_length_mismatch_refused(self, federation_path):
        manifest = self.manifest(federation_path)
        manifest["shards"] = manifest["shards"][:1]
        self.rewrite(federation_path, manifest)
        with pytest.raises(StoreFormatError, match="declares 2 shards"):
            ShardSet.open(federation_path)

    def test_negative_member_count_refused(self, federation_path):
        member = self.nonempty_member(federation_path)
        manifest_path = os.path.join(member, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["traces"][0]["count"] = -1
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="negative packet count"):
            ShardSet.open(federation_path)

    def test_member_offset_mismatch_refused(self, federation_path):
        member = self.nonempty_member(federation_path)
        manifest_path = os.path.join(member, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["traces"][0]["offset"] = 7
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="tile the member"):
            ShardSet.open(federation_path)

    def test_member_packet_total_mismatch_refused(self, federation_path):
        member = self.nonempty_member(federation_path)
        manifest_path = os.path.join(member, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["packets"] += 5
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="declares"):
            ShardSet.open(federation_path)

    def test_federation_totals_mismatch_refused(self, federation_path):
        manifest = self.manifest(federation_path)
        manifest["traces"] += 1
        self.rewrite(federation_path, manifest)
        with pytest.raises(StoreFormatError, match="federation manifest declares"):
            ShardSet.open(federation_path)

    def test_missing_member_store_refused(self, federation_path):
        member = os.path.join(federation_path, "shard-0001.store")
        os.remove(os.path.join(member, "manifest.json"))
        with pytest.raises(StoreFormatError, match="not a trace store"):
            ShardSet.open(federation_path)


class TestProvenance:
    def test_scenario_meta_and_schemes_recorded(self, simple_trace, shards_path):
        schemes = [{"scheme": "padding", "params": {"block": 128}}]
        federation = build_federation(
            shards_path,
            [simple_trace],
            shards=2,
            scenario={"seed": 9},
            meta={"note": "unit"},
            schemes=schemes,
        )
        assert federation.scenario == {"seed": 9}
        assert federation.meta == {"note": "unit"}
        assert federation.schemes == schemes
        specs = federation.scheme_specs()
        assert len(specs) == 1 and specs[0].scheme == "padding"
        manifest = load_shardset_manifest(shards_path)
        assert manifest["placement"] == {"rule": PLACEMENT_RULE, "shards": 2}
        federation.close()

    def test_schemes_key_absent_when_not_provided(self, simple_trace, shards_path):
        federation = build_federation(shards_path, [simple_trace], shards=2)
        assert "schemes" not in load_shardset_manifest(shards_path)
        assert federation.schemes is None
        assert federation.scheme_specs() == ()
        federation.close()

    def test_unserializable_meta_raises_informatively(self, shards_path):
        with pytest.raises(ValueError, match="JSON-serializable"):
            with ShardSetWriter(
                shards_path, shards=1, meta={"oops": float("nan")}
            ) as writer:
                writer.add(Trace.from_arrays([0.0], [10]))
        assert not is_shardset(shards_path)


class TestDispatch:
    def test_open_corpus_returns_matching_reader(
        self, simple_trace, tmp_path, shards_path
    ):
        store_path = str(tmp_path / "single.store")
        write_traces(store_path, [simple_trace], scenario={"seed": 3})
        build_federation(
            shards_path, [simple_trace], shards=2, scenario={"seed": 3}
        ).close()
        assert isinstance(open_corpus(store_path), TraceStore)
        assert isinstance(open_corpus(shards_path), ShardSet)
        assert is_shardset(shards_path) and not is_shardset(store_path)

    def test_corpus_manifest_is_format_agnostic(
        self, simple_trace, tmp_path, shards_path
    ):
        store_path = str(tmp_path / "single.store")
        write_traces(store_path, [simple_trace], scenario={"seed": 3})
        build_federation(
            shards_path, [simple_trace], shards=2, scenario={"seed": 3}
        ).close()
        assert corpus_manifest(store_path)["scenario"] == {"seed": 3}
        assert corpus_manifest(shards_path)["scenario"] == {"seed": 3}
