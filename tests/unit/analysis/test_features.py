"""Tests for per-window feature extraction."""

import numpy as np
import pytest

from oracles.windows import (
    WindowFeatures,
    direction_dropout_variants,
    empty_direction_vector,
    extract_features,
)
from repro.analysis.features import FEATURE_NAMES
from repro.traffic.trace import Trace


class TestFeatureVector:
    def test_twelve_features(self):
        assert len(FEATURE_NAMES) == 12
        assert FEATURE_NAMES[0] == "down_count"
        assert FEATURE_NAMES[6] == "up_count"

    def test_extraction_values(self, simple_trace):
        features = extract_features(simple_trace, window=5.0)
        vector = features.vector
        down_sizes = [100, 1500, 300, 1300]
        assert vector[0] == pytest.approx(np.log1p(4))
        assert vector[1] == max(down_sizes)
        assert vector[2] == min(down_sizes)
        assert vector[3] == pytest.approx(np.mean(down_sizes))
        assert vector[4] == pytest.approx(np.std(down_sizes))

    def test_interarrival_is_log(self, simple_trace):
        features = extract_features(simple_trace, window=5.0)
        # Downlink gaps: 0.5, 1.5, 0.5 -> mean 0.8333; encoded as log(iat + 1ms).
        mean_gap = (0.5 + 1.5 + 0.5) / 3
        assert features.vector[5] == pytest.approx(np.log(mean_gap + 1e-3), abs=1e-6)

    def test_empty_direction_encoding(self):
        trace = Trace.from_arrays([0.0, 1.0], [10, 20], directions=[0, 0])
        features = extract_features(trace, window=5.0)
        assert np.allclose(features.vector[6:], empty_direction_vector(5.0))

    def test_label_inherited_from_trace(self):
        trace = Trace.from_arrays([0.0, 1.0], [10, 20], label="gaming")
        assert extract_features(trace, 5.0).label == "gaming"

    def test_label_override(self):
        trace = Trace.from_arrays([0.0, 1.0], [10, 20], label="gaming")
        assert extract_features(trace, 5.0, label="x").label == "x"

    def test_rejects_bad_window(self, simple_trace):
        with pytest.raises(ValueError):
            extract_features(simple_trace, window=0.0)

    def test_vector_length_enforced(self):
        with pytest.raises(ValueError):
            WindowFeatures(np.zeros(5), "x")


class TestDirectionDropout:
    def test_two_variants_for_bidirectional(self, simple_trace):
        features = extract_features(simple_trace, 5.0)
        variants = direction_dropout_variants(features, 5.0)
        assert len(variants) == 2
        down_only, up_only = variants
        assert np.allclose(down_only.vector[6:], empty_direction_vector(5.0))
        assert np.allclose(up_only.vector[:6], empty_direction_vector(5.0))

    def test_variants_keep_label(self, simple_trace):
        features = extract_features(simple_trace, 5.0, label="bt")
        for variant in direction_dropout_variants(features, 5.0):
            assert variant.label == "bt"

    def test_one_sided_window_yields_one_variant(self):
        trace = Trace.from_arrays([0.0, 1.0], [10, 20], directions=[0, 0])
        features = extract_features(trace, 5.0)
        variants = direction_dropout_variants(features, 5.0)
        assert len(variants) == 1
