"""The per-row morphing sampler: one full-length mask per source row.

:meth:`repro.defenses.morphing.MorphingMatrix.sample_targets` groups
packets by source-support row with one stable sort; this is the direct
loop it replaced, kept as the reference its draws are held to.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.morphing import MorphingMatrix

__all__ = ["sample_targets"]


def sample_targets(
    matrix: MorphingMatrix, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A morphed size for each packet in ``sizes``, one mask per row."""
    conditional = matrix.conditional()
    indices = np.searchsorted(matrix.source_support, np.asarray(sizes, dtype=np.int64))
    indices = np.clip(indices, 0, len(matrix.source_support) - 1)
    out = np.empty(len(sizes), dtype=np.int64)
    cumulative = np.cumsum(conditional, axis=1)
    draws = rng.random(len(sizes))
    for row in np.unique(indices):
        members = indices == row
        columns = np.searchsorted(cumulative[row], draws[members], side="right")
        columns = np.minimum(columns, len(matrix.target_support) - 1)
        out[members] = matrix.target_support[columns]
    return out
