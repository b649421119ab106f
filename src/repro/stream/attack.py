"""The streaming eavesdropper: classify windows the moment they close.

Wraps a :class:`~repro.stream.featurizer.StreamingFeaturizer` around a
scaler + classifier pair and turns a packet stream into a stream of
:class:`WindowPrediction`.  It ingests column chunks
(:meth:`OnlineAttack.observe_chunk`): :meth:`OnlineAttack.consume`
drains a whole capture through it, and the arms-race loop
(:mod:`repro.stream.adaptive`) feeds it trace segments that end where
the defender may react.  ``consume`` also batches any iterable of
:class:`~repro.stream.source.PacketEvent` into chunks, for callers
that wrap a capture in an event iterator (``perfbench``'s tracer
counts events that way).  Two operating modes:

* **frozen** (:meth:`OnlineAttack.from_pipeline`) — reuse a batch-trained
  :class:`~repro.analysis.attack.AttackPipeline`'s scaler, feature
  selection and winning classifier.  Because the streaming featurizer is
  bit-identical to the batch engine and classification is row-wise, the
  per-window predictions match the batch evaluation of the same flows
  exactly — the parity bar the integration tests assert.
* **learning** (``learn=True``) — the classifier must satisfy the
  :class:`~repro.analysis.classifiers.base.OnlineClassifier` protocol;
  each labeled window is first predicted, then fed to ``partial_fit``
  (prequential evaluation), which is how the ``drift`` experiment tracks
  an adversary adapting to concept drift.

Per-window confidence is derived from the classifier's native scores
(probabilities, margins, or log-likelihoods, softmax-normalized) and
drives the defender's trigger in the adaptive loop
(:mod:`repro.stream.adaptive`).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.analysis.attack import AttackPipeline, AttackReport
from repro.analysis.classifiers import Classifier, OnlineClassifier
from repro.analysis.metrics import ConfusionMatrix
from repro.stream.featurizer import ClosedWindow, StreamingFeaturizer
from repro.stream.source import PacketChunk, PacketStream, event_chunks

__all__ = ["OnlineAttack", "WindowPrediction"]


class WindowPrediction(NamedTuple):
    """The attacker's verdict on one closed window.

    Attributes:
        flow: flow key the window came from.
        index: window index on the flow's grid.
        start: window's left edge on the global clock.
        true_label: ground truth carried by the stream (None if unknown).
        predicted: the attacker's label.
        confidence: normalized probability of the predicted class in
            [0, 1] (1.0 when the classifier exposes no scores).
    """

    flow: object
    index: int
    start: float
    true_label: str | None
    predicted: str
    confidence: float


def _class_scores(classifier: Classifier, x: np.ndarray) -> np.ndarray | None:
    """Per-class probabilities for ``x``, from whatever the model exposes."""
    if hasattr(classifier, "predict_proba"):
        return classifier.predict_proba(x)
    if hasattr(classifier, "decision_function"):
        scores = classifier.decision_function(x)
    elif hasattr(classifier, "log_likelihood"):
        scores = classifier.log_likelihood(x)
    else:
        return None
    shifted = scores - scores.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


class OnlineAttack:
    """Classifies (and optionally learns from) windows as they close.

    Args:
        window: eavesdropping duration W in seconds.
        classifier: the attacker's model; must be fitted unless
            ``learn=True`` (an unfitted learner trains silently on the
            first labeled windows before emitting predictions).
        classes: label per class index.
        scaler: fitted scaler standardizing raw feature rows (ignored
            when ``transform`` is given).
        feature_indices: optional feature-column subset (mirrors
            :class:`~repro.analysis.attack.AttackPipeline`; ignored when
            ``transform`` is given).
        learn: enable prequential updates from labeled windows.
        transform: raw-matrix → classifier-input preprocessing.
            :meth:`from_pipeline` passes the pipeline's own
            :meth:`~repro.analysis.attack.AttackPipeline.transform_matrix`
            here, so batch and streaming share one preprocessing code
            path by construction.
    """

    def __init__(
        self,
        window: float,
        classifier: Classifier,
        classes: tuple[str, ...],
        scaler=None,
        feature_indices: tuple[int, ...] | None = None,
        learn: bool = False,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if not classes:
            raise ValueError("need at least one class label")
        if learn and not isinstance(classifier, OnlineClassifier):
            raise TypeError(
                f"{type(classifier).__name__} has no partial_fit; a learning "
                "OnlineAttack needs an OnlineClassifier"
            )
        if transform is None:
            if scaler is None:
                raise ValueError("need either a fitted scaler or a transform")
            select = tuple(feature_indices) if feature_indices else None

            def transform(matrix: np.ndarray) -> np.ndarray:
                if select is not None:
                    matrix = matrix[:, list(select)]
                return scaler.transform(matrix)

        self.featurizer = StreamingFeaturizer(window)
        self._classifier = classifier
        self._classes = tuple(classes)
        self._class_index = {label: i for i, label in enumerate(self._classes)}
        self._transform = transform
        self._learn = bool(learn)
        # Frozen mode requires a fitted classifier (predict raises
        # otherwise); a learner may start cold and becomes ready on its
        # first successful predict or partial_fit.
        self._ready = not self._learn
        self.predictions: list[WindowPrediction] = []
        self.windows_trained = 0

    @classmethod
    def from_pipeline(cls, pipeline: AttackPipeline, learn: bool = False) -> "OnlineAttack":
        """The streaming twin of a trained batch pipeline.

        Shares the pipeline's fitted scaler/classifier objects; with the
        default ``learn=False`` they are only read, so the pipeline stays
        valid for (and identical to) batch evaluation.  ``learn=True``
        updates the shared classifier in place — hand in a dedicated
        pipeline in that case.
        """
        if not pipeline.is_trained:
            raise RuntimeError("pipeline is not trained")
        return cls(
            window=pipeline.window,
            classifier=pipeline.classifier,
            classes=pipeline.classes,
            learn=learn,
            transform=pipeline.transform_matrix,
        )

    # -- streaming ---------------------------------------------------------

    @property
    def classes(self) -> tuple[str, ...]:
        """The labels the attacker can emit."""
        return self._classes

    def observe_chunk(
        self, chunk: PacketChunk, one_at_a_time: bool = False
    ) -> list[WindowPrediction]:
        """Predictions for the windows ``chunk`` closed, in close order.

        Frozen, they are classified in one model pass unless
        ``one_at_a_time`` (a batch's matrix products round scores in the
        last bits); learning, always one at a time, so the prequential
        trajectory does not depend on the chunking.
        """
        closed = self.featurizer.push_chunk(chunk)
        if not (self._learn or one_at_a_time):
            return self._handle(closed)
        return [p for window in closed for p in self._handle([window])]

    def consume(self, stream) -> list[WindowPrediction]:
        """Drain an entire capture through :meth:`observe_chunk`, then flush.

        For non-adaptive replays.  A :class:`~repro.stream.source.PacketStream`
        is read as column chunks; any other iterable of
        :class:`~repro.stream.source.PacketEvent` is batched into chunks
        first.  Returns every prediction made (also accumulated on
        :attr:`predictions`).
        """
        if isinstance(stream, PacketStream):
            chunks = stream.chunks()
        else:
            chunks = event_chunks(stream)
        emitted: list[WindowPrediction] = []
        for chunk in chunks:
            emitted.extend(self.observe_chunk(chunk))
        emitted.extend(self.finish())
        return emitted

    def finish(self) -> list[WindowPrediction]:
        """Close every open window (end of capture)."""
        return self._handle(self.featurizer.flush())

    def finish_flow(self, flow: object) -> list[WindowPrediction]:
        """Close one flow's open window and release its buffered state.

        The arms-race loop calls this for flows the defender retired
        (their virtual MAC will never transmit again), keeping the
        attacker's resident state bounded by *live* flows under heavy
        reallocation churn.  The emitted window is identical to what an
        end-of-capture flush would have produced — window content
        depends only on the packets it buffered.
        """
        return self._handle(self.featurizer.flush(flow))

    def _classify(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Predicted indices + per-class probabilities, one model pass.

        When the classifier exposes scores, the argmax of the (shifted,
        monotone) softmax equals ``predict``'s argmax over the raw
        scores, so deriving indices from the scores matches batch
        prediction exactly while evaluating the model once.
        """
        scores = _class_scores(self._classifier, x)
        if scores is None:
            return self._classifier.predict(x), None
        return np.argmax(scores, axis=1), scores

    def _handle(self, closed: list[ClosedWindow]) -> list[WindowPrediction]:
        if not closed:
            return []
        x = self._transform(np.vstack([window.features for window in closed]))
        emitted: list[WindowPrediction] = []
        indices: np.ndarray | None = None
        if self._ready:
            indices, scores = self._classify(x)
        else:
            try:
                indices, scores = self._classify(x)
                self._ready = True
            except RuntimeError:
                indices = None  # cold learner: train-only this round
        if indices is not None:
            for row, window in enumerate(closed):
                predicted = int(indices[row])
                confidence = (
                    float(scores[row, predicted]) if scores is not None else 1.0
                )
                prediction = WindowPrediction(
                    flow=window.flow,
                    index=window.index,
                    start=window.start,
                    true_label=window.label,
                    predicted=self._classes[predicted],
                    confidence=confidence,
                )
                emitted.append(prediction)
            self.predictions.extend(emitted)
            obs.add("online.predictions", len(emitted))
        if self._learn:
            self._update(x, closed)
        return emitted

    def _update(self, x: np.ndarray, closed: list[ClosedWindow]) -> None:
        """Prequential step: train on the labeled rows just predicted."""
        rows = [
            row
            for row, window in enumerate(closed)
            if window.label in self._class_index
        ]
        if not rows:
            return
        y = np.array(
            [self._class_index[closed[row].label] for row in rows], dtype=np.int64
        )
        self._classifier.partial_fit(x[rows], y, len(self._classes))
        self.windows_trained += len(rows)
        obs.add("online.windows_trained", len(rows))
        self._ready = True

    # -- reporting ---------------------------------------------------------

    def report(self) -> AttackReport:
        """Score every prediction with known ground truth (batch metric)."""
        scored = [p for p in self.predictions if p.true_label is not None]
        confusion = ConfusionMatrix.from_predictions(
            [p.true_label for p in scored],
            [p.predicted for p in scored],
            self._classes,
        )
        return AttackReport(confusion=confusion)
