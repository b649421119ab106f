"""Tests for labeled datasets and splitting."""

import numpy as np
import pytest

from oracles.windows import WindowFeatures, dataset_from_features
from repro.analysis.dataset import Dataset, train_test_split


def _features(label: str, count: int) -> list[WindowFeatures]:
    rng = np.random.default_rng(hash(label) % (2**32))
    return [WindowFeatures(rng.normal(size=12), label) for _ in range(count)]


class TestDataset:
    def test_from_features(self):
        dataset = dataset_from_features(_features("a", 3) + _features("b", 2))
        assert len(dataset) == 5
        assert dataset.classes == ("a", "b")

    def test_label_indices_stable(self):
        dataset = dataset_from_features(_features("b", 1) + _features("a", 1))
        indices = dataset.label_indices()
        assert list(indices) == [1, 0]  # classes sorted alphabetically

    def test_explicit_class_list(self):
        dataset = dataset_from_features(_features("a", 2), classes=("a", "b", "c"))
        assert dataset.classes == ("a", "b", "c")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_features(_features("z", 1), classes=("a",))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_features([])

    def test_subset_preserves_classes(self):
        dataset = dataset_from_features(_features("a", 3) + _features("b", 3))
        subset = dataset.subset(np.array([True, False, True, False, True, False]))
        assert len(subset) == 3
        assert subset.classes == dataset.classes

    def test_class_counts(self):
        dataset = dataset_from_features(_features("a", 3) + _features("b", 1))
        assert dataset.class_counts() == {"a": 3, "b": 1}

    def test_from_matrix(self):
        matrix = np.zeros((3, 12))
        dataset = Dataset.from_matrix(matrix, ["b", "a", "b"])
        assert dataset.classes == ("a", "b")
        assert list(dataset.label_indices()) == [1, 0, 1]


class TestUnlabeledRows:
    def test_label_none_accepted_without_sentinel(self):
        features = [WindowFeatures(np.zeros(12), None) for _ in range(2)]
        dataset = dataset_from_features(features, classes=("a", "b"))
        assert dataset.y == [None, None]
        assert dataset.classes == ("a", "b")

    def test_none_excluded_from_inferred_classes(self):
        features = _features("a", 1) + [WindowFeatures(np.zeros(12), None)]
        dataset = dataset_from_features(features)
        assert dataset.classes == ("a",)

    def test_label_indices_rejects_unlabeled(self):
        dataset = Dataset.from_matrix(np.zeros((1, 12)), [None], classes=("a",))
        with pytest.raises(ValueError, match="unlabeled"):
            dataset.label_indices()

    def test_class_counts_ignores_unlabeled(self):
        dataset = Dataset.from_matrix(np.zeros((3, 12)), ["a", None, "a"], classes=("a",))
        assert dataset.class_counts() == {"a": 2}


class TestTrainTestSplit:
    def test_stratified(self):
        dataset = dataset_from_features(_features("a", 20) + _features("b", 10))
        train, test = train_test_split(dataset, test_fraction=0.3, seed=0)
        assert len(train) + len(test) == 30
        assert test.class_counts()["a"] == 6
        assert test.class_counts()["b"] == 3

    def test_every_class_keeps_training_rows(self):
        dataset = dataset_from_features(_features("a", 2) + _features("b", 2))
        train, test = train_test_split(dataset, test_fraction=0.5, seed=0)
        assert train.class_counts()["a"] >= 1
        assert train.class_counts()["b"] >= 1

    def test_deterministic(self):
        dataset = dataset_from_features(_features("a", 10) + _features("b", 10))
        split_a = train_test_split(dataset, seed=3)[1].y
        split_b = train_test_split(dataset, seed=3)[1].y
        assert split_a == split_b

    def test_rejects_bad_fraction(self):
        dataset = dataset_from_features(_features("a", 4))
        with pytest.raises(ValueError):
            train_test_split(dataset, test_fraction=1.5)
