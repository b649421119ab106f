"""Morphing oracles: the exact LP, the per-row sampler and the merging transform.

* :func:`morphing_matrix_lp` solves Wright et al.'s morphing linear
  program; the tests hold :func:`repro.defenses.morphing.monotone_coupling`
  to its optimum on the real line.  It is the only user of scipy.
* :func:`sample_targets` is the direct loop
  :meth:`repro.defenses.morphing.MorphingMatrix.sample_targets` replaced
  (one full-length mask per source row instead of one stable sort).
* :func:`transform` is the select → sort → merge body
  :meth:`repro.defenses.morphing.TrafficMorphing.transform` replaced with
  one gather per column.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.defenses.base import DefendedTraffic
from repro.defenses.morphing import MorphingMatrix, TrafficMorphing, monotone_coupling
from repro.defenses.padding import data_direction_of
from repro.mac.frames import FRAME_HEADER_BYTES
from repro.traffic.trace import Trace, merge_traces
from repro.util.rng import derive_rng

__all__ = ["morphing_matrix_lp", "sample_targets", "transform"]


def morphing_matrix_lp(
    p: np.ndarray,
    q: np.ndarray,
    source_support: np.ndarray,
    target_support: np.ndarray,
) -> np.ndarray:
    """Solve Wright et al.'s morphing LP exactly.

    minimize Σᵢⱼ |tⱼ − sᵢ| πᵢⱼ  subject to  Σⱼ πᵢⱼ = pᵢ, Σᵢ πᵢⱼ = qⱼ.

    Returns the joint plan π with shape (len(source), len(target)).
    Intended for small alphabets (the LP has |S|·|T| variables).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    source_support = np.asarray(source_support, dtype=float)
    target_support = np.asarray(target_support, dtype=float)
    n_s, n_t = len(source_support), len(target_support)
    if p.shape != (n_s,) or q.shape != (n_t,):
        raise ValueError("distribution shapes do not match supports")
    if not (np.isclose(p.sum(), 1.0) and np.isclose(q.sum(), 1.0)):
        raise ValueError("p and q must be probability vectors")

    cost = np.abs(target_support[None, :] - source_support[:, None]).ravel()
    # Row-sum constraints then column-sum constraints.
    a_eq = np.zeros((n_s + n_t, n_s * n_t))
    for i in range(n_s):
        a_eq[i, i * n_t : (i + 1) * n_t] = 1.0
    for j in range(n_t):
        a_eq[n_s + j, j::n_t] = 1.0
    b_eq = np.concatenate([p, q])
    result = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"morphing LP failed: {result.message}")
    return result.x.reshape(n_s, n_t)


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


def transform(morpher: TrafficMorphing, trace: Trace) -> DefendedTraffic:
    """``morpher.transform(trace)``: build the morphed part, then merge it with the rest."""
    target_direction = data_direction_of(morpher._target_trace.label)
    if morpher._morph_all:
        mask = np.ones(len(trace), dtype=bool)
    else:
        direction = morpher._data_direction or data_direction_of(trace.label)
        mask = trace.directions == int(direction)
    target_sizes = morpher._target_trace.direction_view(target_direction).sizes
    if not mask.any() or len(target_sizes) == 0:
        return DefendedTraffic(original=trace, flows={0: trace}, extra_bytes=0)

    coupling = monotone_coupling(trace.sizes[mask], target_sizes)
    rng = derive_rng(morpher._seed, "morphing", trace.label or "?")
    morphed_sizes = coupling.sample_targets(trace.sizes[mask], rng)

    source_times = trace.times[mask]
    source_sizes = trace.sizes[mask]
    source_channels = trace.channels[mask]
    source_directions = trace.directions[mask]

    payload_capacity = np.maximum(morphed_sizes - FRAME_HEADER_BYTES, 1)
    fragments = np.where(
        morphed_sizes >= source_sizes,
        1,
        -(-source_sizes // payload_capacity),
    ).astype(np.int64)
    out_times = np.repeat(source_times, fragments)
    out_sizes = np.repeat(morphed_sizes, fragments)
    out_channels = np.repeat(source_channels, fragments)
    out_directions = np.repeat(source_directions, fragments)
    extra = int((fragments * morphed_sizes - source_sizes).sum())

    other = trace.select(~mask)
    morphed_part = Trace.from_arrays(
        times=out_times,
        sizes=out_sizes,
        directions=out_directions,
        channels=out_channels,
        label=trace.label,
        sort=True,
    )
    defended = merge_traces([morphed_part, other], label=trace.label)
    return DefendedTraffic(original=trace, flows={0: defended}, extra_bytes=int(extra))
