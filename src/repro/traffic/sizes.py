"""Packet-size mixture models.

The paper observes (Sec. III-C-3) that the bulk of MAC-frame sizes for
all seven applications concentrates around two ranges, [108, 232] bytes
(TCP control / small payloads plus MAC overhead) and [1546, 1576] bytes
(MTU-sized data frames), with the maximum observed size
``l_max = 1576``.  Each application's size distribution is modeled as a
mixture of truncated-normal components over those bands; mixture weights
and component centers are calibrated in :mod:`repro.traffic.apps` so the
per-app mean sizes reproduce Table I's "Original" column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_in_range

__all__ = ["MAX_PACKET_SIZE", "MIN_PACKET_SIZE", "SizeComponent", "SizeMixture"]

#: Maximum MAC-layer frame size observed in the paper's traces (bytes).
MAX_PACKET_SIZE = 1576

#: Smallest frame we generate: a bare MAC header + minimal payload.
MIN_PACKET_SIZE = 60


@dataclass(frozen=True)
class SizeComponent:
    """One truncated-normal component of a packet-size mixture.

    Attributes:
        mean: center of the component in bytes.
        std: standard deviation in bytes.
        low: inclusive lower truncation bound.
        high: inclusive upper truncation bound.
    """

    mean: float
    std: float
    low: int = MIN_PACKET_SIZE
    high: int = MAX_PACKET_SIZE

    def __post_init__(self) -> None:
        require(self.low >= 1, "component lower bound must be >= 1")
        require(self.high >= self.low, "component bounds must satisfy high >= low")
        require_in_range(self.mean, self.low, self.high, "component mean")
        require(self.std >= 0, "component std must be non-negative")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` integer sizes from the truncated component."""
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if self.std == 0:
            return np.full(count, int(round(self.mean)), dtype=np.int64)
        draws = rng.normal(self.mean, self.std, size=count)
        np.rint(draws, out=draws)
        np.clip(draws, self.low, self.high, out=draws)
        return draws.astype(np.int64)

    @property
    def truncated_mean(self) -> float:
        """Approximate mean of the truncated component.

        For the narrow components used here truncation barely moves the
        mean, so the untruncated mean clipped into the bounds is an
        adequate closed form (validated empirically in the test suite).
        """
        return float(np.clip(self.mean, self.low, self.high))


@dataclass(frozen=True)
class SizeMixture:
    """A weighted mixture of :class:`SizeComponent`.

    >>> mixture = SizeMixture(
    ...     components=(SizeComponent(150, 20), SizeComponent(1560, 8)),
    ...     weights=(0.5, 0.5),
    ... )
    >>> rng = np.random.default_rng(0)
    >>> sizes = mixture.sample(rng, 1000)
    >>> bool(sizes.min() >= 60) and bool(sizes.max() <= 1576)
    True
    """

    components: tuple[SizeComponent, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        require(len(self.components) > 0, "mixture needs at least one component")
        require(
            len(self.weights) == len(self.components),
            "mixture weights must match components",
        )
        total = float(sum(self.weights))
        require(abs(total - 1.0) < 1e-6, f"mixture weights must sum to 1, got {total}")
        require(all(w >= 0 for w in self.weights), "mixture weights must be >= 0")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` integer packet sizes."""
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        choices = rng.choice(len(self.components), size=count, p=np.asarray(self.weights))
        sizes = np.empty(count, dtype=np.int64)
        for index, component in enumerate(self.components):
            mask = choices == index
            sizes[mask] = component.sample(rng, int(mask.sum()))
        return sizes

    @property
    def mean(self) -> float:
        """Expected packet size of the mixture in bytes."""
        return float(
            sum(w * c.truncated_mean for w, c in zip(self.weights, self.components))
        )

    def jittered(self, rng: np.random.Generator, concentration: float = 80.0) -> "SizeMixture":
        """Return a mixture with Dirichlet-resampled weights.

        Models session-to-session variability of real captures: the size
        *modes* stay put (they are protocol constants) but their relative
        frequencies drift between sessions.  ``concentration`` scales the
        Dirichlet parameters ``alpha_k = concentration * w_k``; larger
        values mean less jitter.
        """
        require(concentration > 0, "concentration must be positive")
        alpha = np.asarray(self.weights, dtype=float) * concentration + 1e-3
        weights = rng.dirichlet(alpha)
        return SizeMixture(self.components, tuple(float(w) for w in weights))

    def scaled_to_mean(self, target_mean: float) -> "SizeMixture":
        """Return a mixture re-weighted so its mean is ``target_mean``.

        Only the weights are adjusted (component shapes stay fixed) by
        shifting probability mass between the smallest-mean and the
        largest-mean components.  Raises ``ValueError`` when the target
        is outside the achievable range.
        """
        means = [c.truncated_mean for c in self.components]
        lo_index = int(np.argmin(means))
        hi_index = int(np.argmax(means))
        if lo_index == hi_index:
            raise ValueError("cannot retarget a single-component mixture")
        current = self.mean
        span = means[hi_index] - means[lo_index]
        delta = (target_mean - current) / span
        weights = list(self.weights)
        weights[hi_index] += delta
        weights[lo_index] -= delta
        if weights[hi_index] < 0 or weights[lo_index] < 0:
            raise ValueError(
                f"target mean {target_mean} outside achievable range for mixture"
            )
        return SizeMixture(self.components, tuple(weights))
