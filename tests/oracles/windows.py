"""The per-window featurization oracle: slice → featurize → stack.

The attacker of Sec. IV-A/IV-C cuts a flow into W-second windows and
reads twelve features from each.  :mod:`repro.analysis.batch` computes
a flow's whole ``(n_windows, 12)`` matrix in a few numpy passes; this
module is the reference it is held to, written the obvious way:

* :func:`sliding_windows` materializes one re-based sub-``Trace`` per
  window on the shared grid (:func:`repro.analysis.windows.window_edges`)
  — columns other than time are views into the parent flow;
* :func:`extract_features` runs a Python loop per window and per
  direction over :func:`repro.traffic.stats.interarrival_times`;
* :func:`direction_dropout_variants` is the per-row form of
  :func:`repro.analysis.batch.augment_direction_dropout`.

The parity suites (batch, fused, stream) and
``benchmarks/bench_featurization.py`` compare the kernel with
:func:`window_feature_matrix` element for element.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.dataset import Dataset
from repro.analysis.features import _IAT_EPSILON, FEATURE_NAMES
from repro.analysis.windows import window_edges
from repro.traffic.packet import DOWNLINK, UPLINK, Direction
from repro.traffic.stats import DEFAULT_IDLE_CUTOFF, interarrival_times
from repro.traffic.trace import Trace
from repro.util.validation import require, require_positive

__all__ = [
    "WindowFeatures",
    "dataset_from_features",
    "direction_dropout_variants",
    "empty_direction_vector",
    "extract_features",
    "features_from_windows",
    "sliding_windows",
    "window_feature_matrix",
    "window_traces",
]


def sliding_windows(
    trace: Trace,
    window: float,
    min_packets: int = 2,
) -> list[Trace]:
    """Chop ``trace`` into consecutive ``window``-second slices.

    Args:
        trace: the flow to slice (timestamps need not start at 0).
        window: W in seconds.
        min_packets: windows with fewer packets are dropped.

    Returns sub-traces whose timestamps are re-based to the window start
    so features never depend on absolute time.  The non-time columns of
    each slice are views into ``trace`` — treat them as read-only.
    """
    require_positive(window, "window")
    require(min_packets >= 1, "min_packets must be >= 1")
    if len(trace) == 0:
        return []
    edges = window_edges(trace.times, window)
    indices = np.searchsorted(trace.times, edges)
    slices: list[Trace] = []
    for k in range(len(edges) - 1):
        lo, hi = int(indices[k]), int(indices[k + 1])
        if hi - lo < min_packets:
            continue
        slices.append(
            Trace._trusted(
                trace.times[lo:hi] - float(edges[k]),
                trace.sizes[lo:hi],
                trace.directions[lo:hi],
                trace.ifaces[lo:hi],
                trace.channels[lo:hi],
                trace.rssi[lo:hi],
                trace.label,
                {},
            )
        )
    return slices


def window_traces(
    flows: list[Trace],
    window: float,
    min_packets: int = 2,
) -> list[Trace]:
    """Windows across several observable flows, concatenated."""
    out: list[Trace] = []
    for flow in flows:
        out.extend(sliding_windows(flow, window, min_packets))
    return out


@dataclass(frozen=True)
class WindowFeatures:
    """One labeled feature vector."""

    vector: np.ndarray
    label: str | None

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector, dtype=np.float64)
        if vector.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"feature vector must have {len(FEATURE_NAMES)} entries, "
                f"got {vector.shape}"
            )
        object.__setattr__(self, "vector", vector)


def empty_direction_vector(window: float) -> np.ndarray:
    """The 6-entry encoding of a direction with no captured packets."""
    return np.array(
        [0.0, 0.0, 0.0, 0.0, 0.0, np.log(window + _IAT_EPSILON)],
        dtype=np.float64,
    )


def _direction_features(trace: Trace, direction: Direction, window: float) -> np.ndarray:
    view = trace.direction_view(direction)
    if len(view) == 0:
        return empty_direction_vector(window)
    sizes = view.sizes.astype(np.float64)
    gaps = interarrival_times(view.times, idle_cutoff=min(DEFAULT_IDLE_CUTOFF, window))
    mean_iat = float(gaps.mean()) if len(gaps) else window
    return np.array(
        [
            float(np.log1p(len(view))),
            float(sizes.max()),
            float(sizes.min()),
            float(sizes.mean()),
            float(sizes.std()),
            float(np.log(mean_iat + _IAT_EPSILON)),
        ],
        dtype=np.float64,
    )


def extract_features(window_trace: Trace, window: float, label: str | None = None) -> WindowFeatures:
    """Extract the 12-feature vector of one eavesdropping window."""
    if window <= 0:
        raise ValueError("window must be positive")
    vector = np.concatenate(
        [
            _direction_features(window_trace, DOWNLINK, window),
            _direction_features(window_trace, UPLINK, window),
        ]
    )
    return WindowFeatures(vector=vector, label=label if label is not None else window_trace.label)


def features_from_windows(
    windows: list[Trace],
    window: float,
    label: str | None = None,
) -> list[WindowFeatures]:
    """Extract features for a batch of windows, inheriting labels."""
    return [extract_features(piece, window, label) for piece in windows]


def window_feature_matrix(trace: Trace, window: float) -> np.ndarray:
    """The oracle's ``(n_windows, 12)`` matrix of one flow, row per window."""
    features = features_from_windows(sliding_windows(trace, window), window)
    return np.array([f.vector for f in features]).reshape(len(features), len(FEATURE_NAMES))


def direction_dropout_variants(features: WindowFeatures, window: float) -> list[WindowFeatures]:
    """Capture-asymmetry augmentation: the same window heard one-sided.

    Returns the down-only and up-only variants (skipping variants whose
    kept direction is itself empty).
    """
    empty = empty_direction_vector(window)
    variants: list[WindowFeatures] = []
    down, up = features.vector[:6], features.vector[6:]
    if down[0] > 0:
        variants.append(
            WindowFeatures(np.concatenate([down, empty]), features.label)
        )
    if up[0] > 0:
        variants.append(
            WindowFeatures(np.concatenate([empty, up]), features.label)
        )
    return variants


def dataset_from_features(
    features: Sequence[WindowFeatures],
    classes: tuple[str, ...] | None = None,
) -> Dataset:
    """Assemble a dataset from (possibly unlabeled) feature vectors."""
    if not features:
        raise ValueError("cannot build a dataset from zero windows")
    labels = [f.label for f in features]
    matrix = np.vstack([f.vector for f in features])
    return Dataset.from_matrix(matrix, labels, classes)
