"""Integration: every experiment module runs at reduced scale."""

import math

import numpy as np
import pytest

from repro.experiments.fig1 import figure1_cdf_series
from repro.experiments.fig45 import figure4_series, figure5_series
from repro.experiments.scenarios import SCHEME_NAMES, EvaluationScenario
from repro.experiments.table1 import table1_interface_features
from repro.experiments.tables23 import classification_accuracy_table
from repro.experiments.table4 import table4_false_positives
from repro.experiments.table5 import table5_interface_sweep
from repro.experiments.table6 import table6_efficiency
from repro.experiments.discussion import (
    combined_defense_accuracy,
    reshaping_scalability,
    tpc_linking_experiment,
)
from repro.schemes import build_scheme, legacy_scheme_spec
from repro.schemes.base import IdentityScheme


@pytest.fixture(scope="module")
def scenario():
    return EvaluationScenario(
        seed=2,
        train_duration=120.0,
        eval_duration=90.0,
        train_sessions=3,
        eval_sessions=2,
    )


class TestFigures:
    def test_fig1_series(self):
        series = figure1_cdf_series(duration=60.0, seed=2)
        assert len(series) == 7
        for grid, cdf in series.values():
            assert cdf[-1] == pytest.approx(1.0)
            assert np.all(np.diff(cdf) >= 0)
        # Downloading's CDF stays near zero until the MTU band.
        _, download_cdf = series["downloading"]
        grid = series["downloading"][0]
        assert download_cdf[np.searchsorted(grid, 1500)] < 0.05

    def test_fig4_series(self):
        series = figure4_series(duration=60.0, seed=2)
        assert set(series.interface_histograms) == {0, 1, 2}
        # Fig. 4: interfaces are split at 525/1050 and together carry all packets.
        total = sum(series.packets_per_interface.values())
        _, original_counts = series.original_histogram
        assert total == original_counts.sum()

    def test_fig5_series(self):
        series = figure5_series(duration=60.0, seed=2)
        # Fig. 5: modulo hashing spreads packets across all interfaces with
        # each interface seeing the full size spectrum.
        for _, cdf in series.interface_cdfs.values():
            assert cdf[-1] == pytest.approx(1.0)
        counts = list(series.packets_per_interface.values())
        assert min(counts) > 0.1 * max(counts)


class TestTables:
    def test_table1_rows(self, scenario):
        rows = table1_interface_features(scenario)
        assert len(rows) == 7
        for row in rows:
            small = row.interface_mean_sizes[0]
            full = row.interface_mean_sizes[2]
            if not math.isnan(small):
                assert small <= 232
            if not math.isnan(full):
                assert full > 1540

    def test_tables23_shape(self, scenario):
        table = classification_accuracy_table(5.0, scenario)
        rows = table.rows()
        assert len(rows) == 8  # 7 apps + Mean
        assert table.mean("OR") < table.mean("Original")
        assert table.mean("OR") < table.mean("RA")

    def test_table4_fp_increases_under_or(self, scenario):
        result = table4_false_positives(scenario, windows=(5.0,))
        assert result.mean_fp[(5.0, "OR")] > result.mean_fp[(5.0, "Original")]

    def test_table5_sweep(self, scenario):
        result = table5_interface_sweep(scenario, interface_counts=(2, 3))
        rows = result.rows()
        assert len(rows) == 8
        assert set(result.means) == {2, 3}

    def test_table6_overheads(self, scenario):
        result = table6_efficiency(scenario)
        # Table VI: chatting padding is brutal, video morphing is cheap,
        # downloading/uploading cost ~nothing either way.
        assert result.padding_overhead["chatting"] > 200.0
        assert result.padding_overhead["downloading"] < 5.0
        assert result.morphing_overhead["video"] < 15.0
        assert result.morphing_overhead["downloading"] == 0.0
        assert result.mean_padding_overhead > result.mean_morphing_overhead


class TestDiscussion:
    def test_combined_defense_reduces_mean(self, scenario):
        result = combined_defense_accuracy(scenario)
        # Sec. V-C: reshaping+morphing beats plain OR on mean accuracy
        # while costing far less than full morphing.
        assert result.combined_mean <= result.or_mean + 5.0
        assert result.combined_overhead_percent < 40.0

    def test_tpc_linking(self):
        result = tpc_linking_experiment(seed=2, duration=10.0, stations=2)
        assert 0.0 <= result.accuracy_with_tpc <= 1.0
        assert result.accuracy_without_tpc >= result.accuracy_with_tpc - 0.05
        assert result.flows_observed >= 4

    def test_scalability_is_linear(self):
        result = reshaping_scalability(seed=2, durations=(10.0, 20.0, 40.0))
        rates = result.packets_per_second
        # O(N): throughput stays within a small factor across sizes.
        assert max(rates) < 12 * min(rates)


class TestSchemes:
    def test_table_columns_resolve_to_registry_specs(self):
        assert SCHEME_NAMES == ("Original", "FH", "RA", "RR", "OR")
        specs = [legacy_scheme_spec(name) for name in SCHEME_NAMES]
        assert [spec.scheme for spec in specs] == ["original", "fh", "ra", "rr", "or"]
        assert isinstance(build_scheme(specs[0]), IdentityScheme)
