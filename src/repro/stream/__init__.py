"""Streaming evaluation engine: the paper's threat model, online.

The batch pipeline (:mod:`repro.analysis`) evaluates whole traces after
the fact; this package evaluates them *as they happen*:

* :mod:`repro.stream.source` — :class:`PacketStream`: trace and corpus
  replay as time-ordered column chunks (:class:`PacketChunk`) through a
  bounded-memory vectorized k-way merge of concurrent stations (or as
  :class:`PacketEvent` s, for ``perfbench``'s event-counting tracer).
* :mod:`repro.stream.featurizer` — :class:`StreamingFeaturizer`: open
  windows maintained incrementally, a chunk's closed windows featurized
  by the batch kernel in one pass across all stations, each 12-feature vector
  bit-identical to the batch oracle
  (:func:`repro.analysis.batch.flow_feature_matrix`).
* :mod:`repro.stream.attack` — :class:`OnlineAttack`: classify windows
  the moment they close, optionally learning prequentially through the
  :class:`~repro.analysis.classifiers.base.OnlineClassifier` protocol.
* :mod:`repro.stream.adaptive` — :class:`AdaptiveReshaper` and
  :func:`run_arms_race`: the defender reacting to a simulated attacker
  by re-allocating virtual MAC interfaces mid-capture.

The registered experiments ``stream_replay``, ``drift`` and
``arms_race`` (:mod:`repro.experiments.streaming`) drive these pieces
from the ``repro`` CLI.
"""

from repro.stream.adaptive import AdaptiveReshaper, ArmsRaceOutcome, run_arms_race
from repro.stream.attack import OnlineAttack, WindowPrediction
from repro.stream.featurizer import ClosedWindow, StreamingFeaturizer
from repro.stream.source import PacketChunk, PacketEvent, PacketStream

__all__ = [
    "AdaptiveReshaper",
    "ArmsRaceOutcome",
    "ClosedWindow",
    "OnlineAttack",
    "PacketChunk",
    "PacketEvent",
    "PacketStream",
    "StreamingFeaturizer",
    "WindowPrediction",
    "run_arms_race",
]
