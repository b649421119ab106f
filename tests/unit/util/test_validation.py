"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.util.validation import (
    require,
    require_in_range,
    require_positive,
    require_probability_vector,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive(0.5, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.001, float("nan"), float("-inf")])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(value, "x")

    @pytest.mark.parametrize("value", [float("inf"), np.float64("inf")])
    def test_rejects_infinity(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            require_positive(value, "x")


class TestRequireInRange:
    def test_accepts_bounds(self):
        require_in_range(0.0, 0.0, 1.0, "p")
        require_in_range(1.0, 0.0, 1.0, "p")

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_range(1.5, 0.0, 1.0, "p")


class TestRequireProbabilityVector:
    def test_returns_normalized_copy(self):
        out = require_probability_vector([0.25, 0.75], "w")
        assert np.allclose(out.sum(), 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            require_probability_vector([-0.1, 1.1], "w")

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            require_probability_vector([0.4, 0.4], "w")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            require_probability_vector([], "w")

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            require_probability_vector(np.ones((2, 2)) / 4, "w")
