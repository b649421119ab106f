"""Tests for CSV trace I/O and corpus provenance through the store API."""

import numpy as np
import pytest

from repro.storage import (
    ShardSet,
    ShardSetWriter,
    load_manifest,
    open_corpus,
    write_traces,
)
from repro.traffic.io import csv_to_store, trace_from_csv, trace_to_csv
from repro.traffic.trace import Trace


class TestCsvRoundTrip:
    def test_roundtrip(self, simple_trace, tmp_path):
        path = str(tmp_path / "trace.csv")
        trace_to_csv(simple_trace, path)
        loaded = trace_from_csv(path, label="test")
        assert len(loaded) == len(simple_trace)
        assert np.allclose(loaded.times, simple_trace.times)
        assert np.array_equal(loaded.sizes, simple_trace.sizes)
        assert np.array_equal(loaded.directions, simple_trace.directions)
        assert loaded.label == "test"

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        trace_to_csv(Trace.empty(), path)
        assert len(trace_from_csv(path)) == 0


class TestCsvRobustness:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("time,size\n\n1.0,100\n   \n2.0,200\n\n")
        loaded = trace_from_csv(str(path))
        assert list(loaded.times) == [1.0, 2.0]

    def test_whitespace_stripped_in_header_and_cells(self, tmp_path):
        path = tmp_path / "spaces.csv"
        path.write_text(" time , size , direction \n 1.0 , 100 , 1 \n")
        loaded = trace_from_csv(str(path))
        assert list(loaded.times) == [1.0]
        assert list(loaded.sizes) == [100]
        assert list(loaded.directions) == [1]

    def test_malformed_row_names_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,size\n1.0,100\n2.0,not-a-size\n")
        with pytest.raises(ValueError, match="row 3"):
            trace_from_csv(str(path))

    def test_missing_required_cell_names_column_and_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("time,size\n1.0,100\n2.0,\n")
        with pytest.raises(ValueError, match=r"row 3.*'size'"):
            trace_from_csv(str(path))

    def test_negative_time_and_bad_size_rejected_with_row(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("time,size\n-1.0,100\n")
        with pytest.raises(ValueError, match="row 2.*negative timestamp"):
            trace_from_csv(str(path))
        path.write_text("time,size\n1.0,0\n")
        with pytest.raises(ValueError, match="row 2.*non-positive"):
            trace_from_csv(str(path))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected_with_row(self, tmp_path, raw):
        path = tmp_path / "nan.csv"
        path.write_text(f"time,size\n0.5,100\n{raw},100\n")
        with pytest.raises(ValueError, match="row 3.*non-finite timestamp"):
            trace_from_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            trace_from_csv(str(path))

    def test_times_round_trip_exactly(self, tmp_path):
        # repr-based serialization: bit-exact float64 round trip, not
        # 9-decimal truncation.
        times = [0.1, 1.0 / 3.0, 2.0000000001, 1e-12 + 5.0]
        trace = Trace.from_arrays(times=sorted(times), sizes=[10] * 4)
        path = str(tmp_path / "exact.csv")
        trace_to_csv(trace, path)
        assert trace_from_csv(path).times.tobytes() == trace.times.tobytes()


class TestExternalCsv:
    def test_minimal_columns(self, tmp_path):
        path = tmp_path / "minimal.csv"
        path.write_text("time,size\n1.5,100\n0.5,200\n")
        loaded = trace_from_csv(str(path))
        # Rows re-sorted; defaults applied.
        assert list(loaded.times) == [0.5, 1.5]
        assert list(loaded.directions) == [0, 0]
        assert list(loaded.channels) == [1, 1]

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,bytes\n1.0,100\n")
        with pytest.raises(ValueError, match="size"):
            trace_from_csv(str(path))

    def test_blank_optional_cells(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("time,size,direction,iface,channel\n1.0,100,,,\n")
        loaded = trace_from_csv(str(path))
        assert loaded.ifaces[0] == 0
        assert loaded.channels[0] == 1


class TestCorpusProvenance:
    """write_traces / csv_to_store thread scenario + schemes through."""

    def test_write_traces_records_schemes(self, simple_trace, tmp_path):
        schemes = [{"scheme": "padding", "params": {"block": 64}}]
        path = str(tmp_path / "built.store")
        store = write_traces(
            path, [simple_trace], scenario={"seed": 2}, schemes=schemes
        )
        assert store.scenario == {"seed": 2}
        assert store.schemes == schemes
        assert load_manifest(path)["schemes"] == schemes

    def test_csv_to_store_records_scenario_meta_and_schemes(
        self, simple_trace, tmp_path
    ):
        csv_path = str(tmp_path / "capture.csv")
        trace_to_csv(simple_trace, csv_path)
        schemes = [{"scheme": "padding", "params": {"block": 64}}]
        store = csv_to_store(
            csv_path,
            str(tmp_path / "capture.store"),
            labels=["test"],
            scenario={"source": "csv"},
            meta={"capture": "unit"},
            schemes=schemes,
        )
        assert store.scenario == {"source": "csv"}
        assert store.meta == {"capture": "unit"}
        assert store.schemes == schemes

    def test_open_corpus_dispatches_on_format(self, simple_trace, tmp_path):
        store_path = str(tmp_path / "single.store")
        write_traces(store_path, [simple_trace])
        shards_path = str(tmp_path / "many.shards")
        with ShardSetWriter(shards_path, shards=2) as writer:
            writer.add(simple_trace, station="sta0")
        assert not isinstance(open_corpus(store_path), ShardSet)
        federation = open_corpus(shards_path)
        assert isinstance(federation, ShardSet)
        assert len(federation) == 1
