"""The per-window feature set.

Sec. IV-C: "Features we employed in the classification are number of
packets, max/min/average/standard deviation of packet size, and packet
interarrival time in downlink and uplink."  That is six features per
direction, twelve per window.  Idle gaps beyond the 5 s eavesdropping
window are excluded from interarrival means (Sec. IV-B).

Empty directions are encoded as zero counts with the interarrival set to
the window length — "no traffic seen" is itself a signal (it is what
identifies uploading, whose downlink is sparse acks).

Processing: packet counts are encoded as ``log1p(count)`` and mean
interarrival as ``log(iat + 1 ms)``.  Counts and rates in wireless
captures are heavy-tailed (the paper's links swing 1-54 Mbps), so raw
counts would make the bulk-transfer classes extreme outliers after
standardization and drown the size features the paper identifies as the
main signal ("the main feature, 'average packet size'", Sec. IV-C).
Size features stay in raw bytes.

This module names the features and their encoding constants; the one
featurizer that computes them is the vectorized kernel in
:mod:`repro.analysis.batch`.
"""

from __future__ import annotations

__all__ = ["FEATURE_NAMES"]

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{direction}_{name}"
    for direction in ("down", "up")
    for name in ("count", "max_size", "min_size", "mean_size", "std_size", "mean_iat")
)

#: Additive guard inside the interarrival log (1 ms).
_IAT_EPSILON = 1e-3
