"""The traffic-analysis attack (the adversary of Sec. II-A / IV-C).

Reimplements the classification system of Zhang et al. (WiSec 2011,
reference [6]): traffic is chopped into eavesdropping windows of W
seconds; each window yields MAC-layer features ("number of packets,
max/min/average/standard deviation of packet size, and packet
interarrival time in downlink and uplink"); SVM and NN classifiers are
trained on labeled windows of undefended traffic and evaluated on the
observable flows a defense produces.  One vectorized kernel
(:mod:`repro.analysis.batch`) featurizes every window; the per-window
reference it is tested against lives in ``tests/oracles/windows.py``.
"""

from repro.analysis.aggregation import AggregationAttack, AggregationOutcome
from repro.analysis.attack import AttackPipeline, AttackReport
from repro.analysis.batch import (
    WindowCache,
    augment_direction_dropout,
    flow_feature_matrix,
)
from repro.analysis.privacy import (
    attribution_entropy_bits,
    effective_anonymity_set,
    wlan_privacy_entropy_bits,
)
from repro.analysis.classifiers import (
    Classifier,
    GaussianNaiveBayes,
    KNearestNeighbors,
    LinearSvm,
    MlpClassifier,
    best_classifier,
)
from repro.analysis.dataset import Dataset, train_test_split
from repro.analysis.features import FEATURE_NAMES
from repro.analysis.linking import RssiLinker, linking_accuracy
from repro.analysis.metrics import (
    ConfusionMatrix,
    accuracy_by_class,
    false_positive_rates,
    mean_accuracy,
)
from repro.analysis.scaler import StandardScaler
from repro.analysis.windows import window_edges, window_key

__all__ = [
    "AggregationAttack",
    "AggregationOutcome",
    "AttackPipeline",
    "AttackReport",
    "Classifier",
    "ConfusionMatrix",
    "Dataset",
    "FEATURE_NAMES",
    "GaussianNaiveBayes",
    "KNearestNeighbors",
    "LinearSvm",
    "MlpClassifier",
    "RssiLinker",
    "StandardScaler",
    "WindowCache",
    "accuracy_by_class",
    "attribution_entropy_bits",
    "augment_direction_dropout",
    "best_classifier",
    "effective_anonymity_set",
    "wlan_privacy_entropy_bits",
    "false_positive_rates",
    "flow_feature_matrix",
    "linking_accuracy",
    "mean_accuracy",
    "train_test_split",
    "window_edges",
    "window_key",
]
