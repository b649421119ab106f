"""Integration: every registered experiment runs at reduced scale."""

import math

import numpy as np
import pytest

from repro.defenses.morphing import TrafficMorphing
from repro.experiments import parallel
from repro.experiments.parallel import run_experiment, run_experiment_result
from repro.experiments.registry import ScenarioParams
from repro.experiments.scenarios import SCHEME_NAMES
from repro.schemes import build_scheme, legacy_scheme_spec
from repro.schemes.base import IdentityScheme
from repro.traffic.apps import ALL_APPS

#: The reduced-scale corpus the table experiments share.
SCENARIO = ScenarioParams(
    seed=2,
    train_duration=120.0,
    eval_duration=90.0,
    train_sessions=3,
    eval_sessions=2,
)

#: Experiments that generate their own traffic only need the seed.
SEED_ONLY = ScenarioParams(seed=2)


@pytest.fixture(scope="module", autouse=True)
def release_worker_state():
    yield
    parallel.clear_worker_state()


class TestFigures:
    def test_fig1_series(self):
        series = run_experiment("fig1", SEED_ONLY, {"duration": 60.0})
        assert len(series) == 7
        for grid, cdf in series.values():
            assert cdf[-1] == pytest.approx(1.0)
            assert np.all(np.diff(cdf) >= 0)
        # Downloading's CDF stays near zero until the MTU band.
        _, download_cdf = series["downloading"]
        grid = series["downloading"][0]
        assert download_cdf[np.searchsorted(grid, 1500)] < 0.05

    def test_fig4_series(self):
        series = run_experiment("fig4", SEED_ONLY, {"duration": 60.0})
        assert set(series.interface_histograms) == {0, 1, 2}
        # Fig. 4: interfaces are split at 525/1050 and together carry all packets.
        total = sum(series.packets_per_interface.values())
        _, original_counts = series.original_histogram
        assert total == original_counts.sum()

    def test_fig5_series(self):
        series = run_experiment("fig5", SEED_ONLY, {"duration": 60.0})
        # Fig. 5: modulo hashing spreads packets across all interfaces with
        # each interface seeing the full size spectrum.
        for _, cdf in series.interface_cdfs.values():
            assert cdf[-1] == pytest.approx(1.0)
        counts = list(series.packets_per_interface.values())
        assert min(counts) > 0.1 * max(counts)


class TestTables:
    def test_table1_rows(self):
        rows = run_experiment("table1", SCENARIO)
        assert len(rows) == 7
        for row in rows:
            small = row.interface_mean_sizes[0]
            full = row.interface_mean_sizes[2]
            if not math.isnan(small):
                assert small <= 232
            if not math.isnan(full):
                assert full > 1540

    def test_tables23_shape(self):
        table = run_experiment("table2", SCENARIO)
        rows = table.rows()
        assert len(rows) == 8  # 7 apps + Mean
        assert table.mean("OR") < table.mean("Original")
        assert table.mean("OR") < table.mean("RA")

    def test_table4_fp_increases_under_or(self):
        result = run_experiment("table4", SCENARIO, {"windows": "5"})
        assert result.mean_fp[(5.0, "OR")] > result.mean_fp[(5.0, "Original")]

    @pytest.mark.parametrize("windows", ["5", "60,5", "5,15,60"])
    def test_table4_rows_follow_the_declared_windows(self, windows):
        result = run_experiment("table4", SCENARIO, {"windows": windows})
        rows = result.rows()
        assert [row[0] for row in rows] == [app.value for app in ALL_APPS] + ["Mean"]
        assert {len(row) for row in rows} == {1 + 2 * len(windows.split(","))}
        rendered = run_experiment_result("table4", SCENARIO, {"windows": windows})
        assert rendered.rows == tuple(tuple(row) for row in rows)
        assert rendered.headers[1:] == tuple(
            f"{scheme} W={window:g}s" for window, scheme in result.columns()
        )

    def test_table5_sweep(self):
        result = run_experiment("table5", SCENARIO, {"interfaces": "2,3"})
        rows = result.rows()
        assert len(rows) == 8
        assert set(result.means) == {2, 3}

    def test_table6_overheads(self):
        result = run_experiment("table6", SCENARIO)
        # Table VI: chatting padding is brutal, video morphing is cheap,
        # downloading/uploading cost ~nothing either way.
        assert result.padding_overhead["chatting"] > 200.0
        assert result.padding_overhead["downloading"] < 5.0
        assert result.morphing_overhead["video"] < 15.0
        assert result.morphing_overhead["downloading"] == 0.0
        assert result.mean_padding_overhead > result.mean_morphing_overhead


    def test_table6_morphing_overhead_materializes_no_flow(self, monkeypatch):
        expected = run_experiment("table6", SCENARIO)

        def refuse(self, trace):
            raise AssertionError("table6 materialized a morphed flow")

        monkeypatch.setattr(TrafficMorphing, "transform", refuse)
        assert run_experiment("table6", SCENARIO) == expected


class TestDiscussion:
    def test_combined_defense_reduces_mean(self):
        result = run_experiment("combined", SCENARIO)
        # Sec. V-C: reshaping+morphing beats plain OR on mean accuracy
        # while costing far less than full morphing.
        assert result.combined_mean <= result.or_mean + 5.0
        assert result.combined_overhead_percent < 40.0

    def test_tpc_linking(self):
        result = run_experiment("tpc", SEED_ONLY, {"duration": 10.0, "stations": 2})
        assert 0.0 <= result.accuracy_with_tpc <= 1.0
        assert result.accuracy_without_tpc >= result.accuracy_with_tpc - 0.05
        assert result.flows_observed >= 4

    def test_scalability_is_linear(self):
        result = run_experiment("scalability", SEED_ONLY, {"durations": "10,20,40"})
        rates = result.packets_per_second
        # O(N): throughput stays within a small factor across sizes.
        assert max(rates) < 12 * min(rates)


class TestSchemes:
    def test_table_columns_resolve_to_registry_specs(self):
        assert SCHEME_NAMES == ("Original", "FH", "RA", "RR", "OR")
        specs = [legacy_scheme_spec(name) for name in SCHEME_NAMES]
        assert [spec.scheme for spec in specs] == ["original", "fh", "ra", "rr", "or"]
        assert isinstance(build_scheme(specs[0]), IdentityScheme)
