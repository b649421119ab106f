"""Attacker selection: the paper's "highest accuracy" reporting rule.

Sec. IV-C: "We present the highest classification accuracy based on
these features."  :func:`best_classifier` trains each candidate on the
training set and returns the one with the highest accuracy on a
held-out validation split — the strongest adversary the defender must
survive.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterable

import numpy as np

from repro import obs
from repro.analysis.classifiers.base import Classifier
from repro.analysis.classifiers.bayes import GaussianNaiveBayes
from repro.analysis.classifiers.knn import KNearestNeighbors
from repro.analysis.classifiers.nn import MlpClassifier
from repro.analysis.classifiers.svm import LinearSvm
from repro.util.rng import derive_rng

__all__ = ["CLASSIFIERS", "DEFAULT_ATTACKERS", "default_attackers", "best_classifier"]

#: ``map(fn, items) -> iterable of results``, in item order: the builtin
#: or an executor's pool map.
TaskMap = Callable[[Callable[[object], object], Iterable[object]], Iterable[object]]


#: Every attacker by name, built from a seed (bayes and knn ignore it).
CLASSIFIERS: dict[str, Callable[[int], Classifier]] = {
    "svm": lambda seed: LinearSvm(seed=seed),
    "nn": lambda seed: MlpClassifier(seed=seed),
    "bayes": lambda seed: GaussianNaiveBayes(),
    "knn": lambda seed: KNearestNeighbors(),
}

#: The paper's attacker set: one SVM and one NN.
DEFAULT_ATTACKERS = ("svm", "nn")


def default_attackers(seed: int = 0) -> list[Classifier]:
    """The paper's attacker set, built from ``seed``."""
    return [CLASSIFIERS[name](seed) for name in DEFAULT_ATTACKERS]


def _fit(candidate: Classifier, x: np.ndarray, y: np.ndarray, n_classes: int) -> None:
    with obs.span(f"fit[{candidate.name}]"):
        candidate.fit(x, y, n_classes)


def _fit_copy(
    task: tuple[Classifier, np.ndarray, np.ndarray, int, tuple | None],
) -> tuple[Classifier, float]:
    """Fit a fresh copy of a candidate; score it when given validation rows.

    A pure function of the task — every ``fit`` seeds itself from the
    classifier's own seed — so it may run in any process.
    """
    candidate, x, y, n_classes, validation = task
    fitted = copy.deepcopy(candidate)
    _fit(fitted, x, y, n_classes)
    accuracy = float("nan") if validation is None else fitted.score(*validation)
    return fitted, accuracy


def best_classifier(
    candidates: list[Classifier],
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    validation_fraction: float = 0.25,
    seed: int = 0,
    map: TaskMap | None = None,
) -> tuple[Classifier, float]:
    """Train every candidate; return (best fitted classifier, val accuracy).

    Each candidate is fit on a training split and scored on the
    held-out rest; the winner (first on ties) is fit again on all rows.
    Without ``map`` that is one split fit per candidate, in order, then
    the winner's refit, all on the candidate objects themselves.  With
    a ``map`` (an executor's pool map) every candidate's split fit *and*
    full-data fit run as independent tasks on fresh copies, and the
    winner's full fit is kept: the same classifier, since a fit is a
    pure function of (candidate, rows), computed in parallel.
    """
    if not candidates:
        raise ValueError("need at least one candidate classifier")
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in (0, 1)")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = derive_rng(seed, "classifier-selection")
    order = rng.permutation(len(x))
    n_val = max(1, int(len(x) * validation_fraction))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("training split is empty; provide more windows")
    validation = (x[val_idx], y[val_idx])

    if map is None:
        accuracies = []
        for candidate in candidates:
            _fit(candidate, x[train_idx], y[train_idx], n_classes)
            accuracies.append(candidate.score(*validation))
        fitted = candidates
    else:
        # Full fits first: they are the longest tasks, so a pool starts
        # them before the shorter split fits.
        tasks = [(candidate, x, y, n_classes, None) for candidate in candidates]
        tasks += [
            (candidate, x[train_idx], y[train_idx], n_classes, validation)
            for candidate in candidates
        ]
        outcomes = list(map(_fit_copy, tasks))
        fitted = [model for model, _ in outcomes[: len(candidates)]]
        accuracies = [accuracy for _, accuracy in outcomes[len(candidates) :]]
    with obs.span("select"):
        best = 0
        for index, accuracy in enumerate(accuracies):
            if accuracy > accuracies[best]:
                best = index
    if map is None:
        _fit(fitted[best], x, y, n_classes)
    return fitted[best], float(accuracies[best])
