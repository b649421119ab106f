"""End-to-end attack pipeline.

The full adversary loop of Sec. IV: train the classifier on windows of
*undefended* traffic of all seven applications (the attacker profiles
applications offline), then, for each defended application trace,
classify every window of every observable flow and score how often the
attacker recovers the true activity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.batch import augment_direction_dropout, flow_feature_matrix
from repro.analysis.classifiers import Classifier, best_classifier, default_attackers
from repro.analysis.classifiers.selection import CLASSIFIERS, DEFAULT_ATTACKERS, TaskMap
from repro.analysis.dataset import Dataset
from repro.analysis.metrics import (
    ConfusionMatrix,
    accuracy_by_class,
    false_positive_rates,
    mean_accuracy,
)
from repro.analysis.scaler import StandardScaler
from repro.analysis.windows import MIN_WINDOW_PACKETS, window_key
from repro.obs import add as obs_add
from repro.obs import span as obs_span
from repro.traffic.trace import Trace
from repro.util.validation import require_positive

__all__ = ["AttackPipeline", "AttackReport", "PipelineKey", "training_rows"]


@dataclass(frozen=True)
class AttackReport:
    """Classification outcome over one set of flows."""

    confusion: ConfusionMatrix

    @property
    def accuracy_by_class(self) -> dict[str, float]:
        """Per-application accuracy (%) — the tables' per-app rows."""
        return accuracy_by_class(self.confusion)

    @property
    def false_positive_by_class(self) -> dict[str, float]:
        """Per-application FP rate (%) — Table IV."""
        return false_positive_rates(self.confusion)

    @property
    def mean_accuracy(self) -> float:
        """The tables' "Mean" row (%)."""
        return mean_accuracy(self.confusion)

    @property
    def mean_false_positive(self) -> float:
        """Mean of per-class FP rates (%)."""
        values = [v for v in self.false_positive_by_class.values() if v == v]
        if not values:
            return float("nan")
        return float(sum(values) / len(values))


def training_rows(trace: Trace, window: float) -> np.ndarray:
    """One training trace's rows: its windows, then their variants.

    The trace's feature matrix
    (:func:`repro.analysis.batch.flow_feature_matrix`) followed by every
    window's one-sided variants.  Attackers and feature subsets act at
    fit time, so every pipeline of one window fits these same rows.
    """
    matrix = flow_feature_matrix(trace, window)
    if len(matrix):
        variants = augment_direction_dropout(matrix, window)
        if len(variants):
            matrix = np.concatenate([matrix, variants], axis=0)
    return matrix


class AttackPipeline:
    """Trains on undefended traces, evaluates defenses.

    Every training window also contributes its one-sided
    (downlink-only / uplink-only) variants — see
    :func:`repro.analysis.batch.augment_direction_dropout`.

    Args:
        window: the eavesdropping duration W in seconds.
        attackers: candidate classifiers (defaults to SVM + NN, the
            paper's attacker set).
        seed: classifier-selection randomness.
        feature_indices: optional subset of feature columns the attacker
            uses (see :data:`repro.analysis.features.FEATURE_NAMES`).
            The Table VI timing attack, for example, keeps only the
            packet-count and interarrival columns.
    """

    #: Fewest packets per classifiable window (the batch kernel's filter).
    min_packets = MIN_WINDOW_PACKETS
    #: Training always adds the one-sided variants of every window.
    augment_directions = True

    def __init__(
        self,
        window: float,
        attackers: list[Classifier] | None = None,
        seed: int = 0,
        feature_indices: tuple[int, ...] | None = None,
    ):
        require_positive(window, "window")
        self.window = float(window)
        self.seed = int(seed)
        self.feature_indices = tuple(feature_indices) if feature_indices else None
        self._attackers = attackers
        self._scaler = StandardScaler()
        self._classifier: Classifier | None = None
        self._classes: tuple[str, ...] = ()
        self.validation_accuracy: float = float("nan")

    def _select_features(self, x):
        if self.feature_indices is None:
            return x
        return x[:, list(self.feature_indices)]

    # -- training ----------------------------------------------------------

    def train(self, traces_by_app: dict[str, list[Trace]]) -> "AttackPipeline":
        """Profile applications from undefended training traces.

        The composition of the two pure training pieces: every trace's
        :func:`training_rows`, then :meth:`fit_rows` on them.  The
        executor's training stage runs the same pieces spread over a
        process pool.
        """
        with obs_span("train.rows"):
            rows_by_label = {
                label: [training_rows(trace, self.window) for trace in traces]
                for label, traces in traces_by_app.items()
            }
        return self.fit_rows(rows_by_label)

    def fit_rows(
        self,
        rows_by_label: dict[str, list[np.ndarray]],
        map: TaskMap | None = None,
    ) -> "AttackPipeline":
        """Fit the scaler and select the classifier on training rows.

        ``rows_by_label`` maps each application to its traces'
        :func:`training_rows`, in trace order.  ``map`` runs the
        classifier fits as parallel tasks (see :func:`best_classifier`);
        the fitted pipeline is the same either way.
        """
        blocks: list[np.ndarray] = []
        labels: list[str] = []
        for label, row_blocks in rows_by_label.items():
            for rows in row_blocks:
                if len(rows):
                    blocks.append(rows)
                    labels.extend([label] * len(rows))
        if not blocks:
            raise ValueError("no classifiable windows in the training traces")
        dataset = Dataset.from_matrix(np.concatenate(blocks, axis=0), labels)
        self._classes = dataset.classes
        x = self._scaler.fit_transform(self._select_features(dataset.x))
        y = dataset.label_indices()
        attackers = self._attackers or default_attackers(self.seed)
        self._classifier, self.validation_accuracy = best_classifier(
            attackers, x, y, len(self._classes), seed=self.seed, map=map
        )
        return self

    @property
    def is_trained(self) -> bool:
        """True once :meth:`train` has run."""
        return self._classifier is not None

    @property
    def classes(self) -> tuple[str, ...]:
        """The activity classes the attacker can emit."""
        return self._classes

    @property
    def classifier_name(self) -> str:
        """Name of the winning attacker (svm / nn / ...)."""
        if self._classifier is None:
            return "untrained"
        return self._classifier.name

    @property
    def classifier(self) -> Classifier:
        """The winning fitted classifier (streaming wrappers reuse it)."""
        if self._classifier is None:
            raise RuntimeError("pipeline is not trained")
        return self._classifier

    @property
    def scaler(self) -> StandardScaler:
        """The scaler fitted on the training windows."""
        if self._classifier is None:
            raise RuntimeError("pipeline is not trained")
        return self._scaler

    # -- evaluation -----------------------------------------------------------

    def transform_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Feature-select and scale raw rows into the classifier's view.

        This is the exact preprocessing :meth:`classify_matrix` applies,
        exposed so online consumers (:mod:`repro.stream`) feed the
        classifier bit-identical inputs.
        """
        if self._classifier is None:
            raise RuntimeError("pipeline is not trained")
        matrix = np.asarray(matrix, dtype=np.float64)
        return self._scaler.transform(self._select_features(matrix))

    def classify_matrix(self, matrix: np.ndarray) -> list[str]:
        """Predict an activity label per row of a raw feature matrix.

        ``matrix`` holds unscaled 12-feature rows (e.g. from
        :func:`repro.analysis.batch.flow_feature_matrix`); scaling and
        feature selection are applied here, and the classifier sees the
        whole batch in one ``predict`` call.
        """
        if self._classifier is None:
            raise RuntimeError("pipeline is not trained")
        matrix = np.asarray(matrix, dtype=np.float64)
        if len(matrix) == 0:
            return []
        obs_add("classify.calls")
        obs_add("classify.windows", len(matrix))
        with obs_span("classify"):
            predictions = self._classifier.predict(self.transform_matrix(matrix))
        return [self._classes[int(index)] for index in predictions]

    def evaluate_flows(self, flows_by_label: dict[str, list[Trace]]) -> AttackReport:
        """Score already-materialized flows, keyed by their true application.

        Each flow is featurized with
        :func:`~repro.analysis.batch.flow_feature_matrix`, then
        :meth:`evaluate_matrices` scores the lot.  Experiments featurize
        through :meth:`repro.experiments.ExperimentRunner.flow_feature_matrices`.
        """
        return self.evaluate_matrices(
            {
                label: [flow_feature_matrix(flow, self.window) for flow in flows]
                for label, flows in flows_by_label.items()
            }
        )

    def evaluate_matrices(
        self,
        matrices_by_label: dict[str, list[np.ndarray]],
    ) -> AttackReport:
        """Score already-featurized flows (the fused path's entry point).

        ``matrices_by_label`` maps each true application to its flows'
        feature matrices (one ``(n_windows, 12)`` array per observable
        flow, e.g. from
        :meth:`repro.experiments.ExperimentRunner.flow_feature_matrices`).
        All windows of all flows are classified in one batched
        prediction; the ``featurize.*`` counters record the flows and
        windows scored.
        """
        matrices: list[np.ndarray] = []
        true_labels: list[str] = []
        with obs_span("featurize"):
            for label, flow_matrices in matrices_by_label.items():
                for matrix in flow_matrices:
                    obs_add("featurize.flows")
                    obs_add("featurize.windows", len(matrix))
                    if len(matrix):
                        matrices.append(matrix)
                        true_labels.extend([label] * len(matrix))
        if matrices:
            predicted = self.classify_matrix(np.concatenate(matrices, axis=0))
        else:
            predicted = []
        confusion = ConfusionMatrix.from_predictions(
            true_labels, predicted, self._classes
        )
        return AttackReport(confusion=confusion)


@dataclass(frozen=True)
class PipelineKey:
    """Names one trained attacker: window, candidate names, feature subset.

    ``attackers`` index :data:`~repro.analysis.classifiers.CLASSIFIERS`;
    ``features=None`` keeps all twelve columns.  ``window`` is
    normalized by :func:`~repro.analysis.windows.window_key`, so float
    jitter names the same key.
    """

    window: float
    attackers: tuple[str, ...] = DEFAULT_ATTACKERS
    features: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", window_key(self.window))

    def build(self, seed: int) -> AttackPipeline:
        """The untrained pipeline this key names."""
        return AttackPipeline(
            window=self.window,
            attackers=[CLASSIFIERS[name](seed) for name in self.attackers],
            seed=seed,
            feature_indices=self.features,
        )
