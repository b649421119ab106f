"""Classifiers for the traffic-analysis attack.

The paper's adversary uses "the classification system in [6], including
SVM and NN algorithms" and reports "the highest classification accuracy
based on these features" (Sec. IV-C).  We implement both from scratch
on numpy (no sklearn in the environment), plus Gaussian naive Bayes and
k-NN as sanity cross-checks, and :func:`best_classifier` to pick the
strongest attacker by validation accuracy — matching the paper's
"highest accuracy" reporting rule.
"""

from repro.analysis.classifiers.base import Classifier, OnlineClassifier
from repro.analysis.classifiers.svm import LinearSvm
from repro.analysis.classifiers.nn import MlpClassifier
from repro.analysis.classifiers.bayes import GaussianNaiveBayes
from repro.analysis.classifiers.knn import KNearestNeighbors
from repro.analysis.classifiers.selection import (
    CLASSIFIERS,
    best_classifier,
    default_attackers,
)

__all__ = [
    "CLASSIFIERS",
    "Classifier",
    "GaussianNaiveBayes",
    "KNearestNeighbors",
    "LinearSvm",
    "MlpClassifier",
    "OnlineClassifier",
    "best_classifier",
    "default_attackers",
]
