"""Small argument-validation helpers used across the library.

The library raises :class:`ValueError` (never silent clipping) on bad
arguments so configuration mistakes surface immediately.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "require",
    "require_positive",
    "require_in_range",
    "require_probability_vector",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value`` is strictly positive and finite.

    ``inf`` is rejected too: a duration or window of ``inf`` would make
    a generator loop forever or a window grid come out empty.
    """
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_in_range(value: float, low: float, high: float, name: str) -> None:
    """Raise unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")


def require_probability_vector(weights: Sequence[float], name: str) -> np.ndarray:
    """Validate and return ``weights`` as a probability vector.

    The vector must be non-empty, non-negative and sum to 1 (within a
    small tolerance); the returned copy is renormalized exactly.
    """
    array = np.asarray(weights, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if np.any(array < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(array.sum())
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"{name} must sum to 1, got {total}")
    return array / total
