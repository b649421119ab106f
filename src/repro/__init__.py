"""repro — Traffic reshaping against traffic analysis in wireless networks.

A from-scratch reproduction of Zhang, He & Liu, "Defending Against
Traffic Analysis in Wireless Networks Through Traffic Reshaping"
(IEEE ICDCS 2011).  The library contains:

* :mod:`repro.traffic` — calibrated traffic models of the paper's seven
  online activities and numpy-backed trace containers;
* :mod:`repro.mac` — virtual MAC interfaces, the AP-assisted
  configuration protocol, and address translation;
* :mod:`repro.net` — a discrete-event WLAN with RSSI modeling and a
  passive sniffer;
* :mod:`repro.core` — the reshaping algorithms (RA, RR, OR, FH, and the
  Eq. 1 target-driven scheduler) and their defense adapter;
* :mod:`repro.defenses` — the one defense contract (``Scheme``), the
  baselines (packet padding, traffic morphing, pseudonyms) and overhead
  accounting;
* :mod:`repro.analysis` — the traffic-classification attack (SVM / NN
  over per-window MAC features) and the RSSI linking adversary;
* :mod:`repro.experiments` — regeneration of every table and figure,
  all evaluated through one path: ``ExperimentRunner`` plans a scheme
  when it can fuse, applies it when it cannot, then featurizes.

Quickstart (``evaluate_flows`` scores flows you materialized yourself)::

    from repro import (
        AppType, AttackPipeline, OrthogonalReshaper, ReshaperScheme,
        TrafficGenerator,
    )

    gen = TrafficGenerator(seed=7)
    train = {app.value: [gen.generate(app, 300.0)] for app in AppType}
    attack = AttackPipeline(window=5.0).train(train)

    bt = gen.generate("bittorrent", 300.0, session=9)
    flows = ReshaperScheme("or", OrthogonalReshaper.paper_default()).apply(bt)
    report = attack.evaluate_flows({"bittorrent": flows.observable_flows})
    print(report.accuracy_by_class["bittorrent"])  # collapses vs undefended
"""

from repro.analysis import (
    AttackPipeline,
    AttackReport,
    GaussianNaiveBayes,
    KNearestNeighbors,
    LinearSvm,
    MlpClassifier,
    RssiLinker,
)
from repro.core import (
    CombinedDefense,
    FrequencyHoppingScheduler,
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    Reshaper,
    ReshaperScheme,
    RoundRobinReshaper,
    TargetDrivenReshaper,
)
from repro.defenses import PacketPadding, PseudonymDefense, TrafficMorphing
from repro.traffic import (
    ALL_APPS,
    AppType,
    Packet,
    Trace,
    TrafficGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_APPS",
    "AppType",
    "AttackPipeline",
    "AttackReport",
    "CombinedDefense",
    "FrequencyHoppingScheduler",
    "GaussianNaiveBayes",
    "KNearestNeighbors",
    "LinearSvm",
    "MlpClassifier",
    "ModuloReshaper",
    "OrthogonalReshaper",
    "Packet",
    "PacketPadding",
    "PseudonymDefense",
    "RandomReshaper",
    "Reshaper",
    "ReshaperScheme",
    "RoundRobinReshaper",
    "RssiLinker",
    "TargetDrivenReshaper",
    "Trace",
    "TrafficGenerator",
    "TrafficMorphing",
    "__version__",
]
