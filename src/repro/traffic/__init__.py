"""Traffic substrate: packets, traces, and the seven application models.

The paper evaluates traffic reshaping on >50 hours of real home-WLAN
traces of seven online activities (browsing, chatting, online gaming,
downloading, uploading, online video, BitTorrent).  Those traces are not
available, so this package provides parametric per-application traffic
models calibrated against the per-app statistics the paper publishes
(Table I "Original" column, and the packet-size structure of Figure 1).
See DESIGN.md section 2 for the substitution rationale.
"""

from repro.traffic.apps import (
    APP_MODELS,
    ALL_APPS,
    AppModel,
    AppType,
    DirectionModel,
    app_model,
)
from repro.traffic.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ConstantRateArrivals,
    PoissonArrivals,
)
from repro.traffic.generator import TrafficGenerator, generate_app_trace
from repro.traffic.io import (
    csv_to_store,
    trace_from_csv,
    trace_to_csv,
)
from repro.traffic.packet import DOWNLINK, UPLINK, Direction, Packet
from repro.traffic.sizes import MAX_PACKET_SIZE, SizeComponent, SizeMixture
from repro.traffic.stats import (
    TraceFeatureSummary,
    empirical_cdf,
    interarrival_times,
    mean_interarrival,
    size_histogram,
    summarize_trace,
)
from repro.traffic.trace import Trace, concat_traces, merge_traces

__all__ = [
    "ALL_APPS",
    "APP_MODELS",
    "AppModel",
    "AppType",
    "ArrivalProcess",
    "BurstyArrivals",
    "ConstantRateArrivals",
    "DOWNLINK",
    "Direction",
    "DirectionModel",
    "MAX_PACKET_SIZE",
    "Packet",
    "PoissonArrivals",
    "SizeComponent",
    "SizeMixture",
    "Trace",
    "TraceFeatureSummary",
    "TrafficGenerator",
    "UPLINK",
    "app_model",
    "concat_traces",
    "csv_to_store",
    "empirical_cdf",
    "generate_app_trace",
    "interarrival_times",
    "mean_interarrival",
    "merge_traces",
    "size_histogram",
    "summarize_trace",
    "trace_from_csv",
    "trace_to_csv",
]
