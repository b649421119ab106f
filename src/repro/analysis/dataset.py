"""Labeled feature datasets and train/test splitting.

Rows may be unlabeled (``label=None``): the evaluation path classifies
windows whose true application is unknown to the attacker, and those
rows flow through the same :class:`Dataset` container without any
sentinel class.  Only operations that need ground truth
(:meth:`Dataset.label_indices`) reject unlabeled rows.
"""

from __future__ import annotations

from collections.abc import Sequence

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng

__all__ = ["Dataset", "train_test_split"]


@dataclass
class Dataset:
    """A design matrix with (optionally missing) string labels.

    Attributes:
        x: float64 matrix, one row per window.
        y: label per row (``None`` marks an unlabeled row).
        classes: sorted distinct labels (fixed at construction so label
            indices stay stable across subsets).
    """

    x: np.ndarray
    y: list[str | None]
    classes: tuple[str, ...]

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError("x must be a 2-D matrix")
        if len(self.y) != self.x.shape[0]:
            raise ValueError("label count does not match row count")
        unknown = {label for label in self.y if label is not None} - set(self.classes)
        if unknown:
            raise ValueError(f"labels {unknown} missing from class list")

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        labels: Sequence[str | None],
        classes: tuple[str, ...] | None = None,
    ) -> "Dataset":
        """Assemble a dataset from a precomputed feature matrix.

        This is the batch-featurization entry point: the matrix comes
        straight from :func:`repro.analysis.batch.flow_feature_matrix`
        with one label per row.
        """
        if classes is None:
            classes = tuple(sorted({label for label in labels if label is not None}))
        return cls(matrix, list(labels), classes)

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def label_indices(self) -> np.ndarray:
        """Integer-encoded labels, indexed into :attr:`classes`."""
        index = {label: i for i, label in enumerate(self.classes)}
        try:
            return np.array([index[label] for label in self.y], dtype=np.int64)
        except KeyError:
            raise ValueError(
                "cannot index labels of a dataset with unlabeled rows"
            ) from None

    def subset(self, mask: np.ndarray) -> "Dataset":
        """Rows where ``mask`` is True (class list preserved)."""
        mask = np.asarray(mask, dtype=bool)
        return Dataset(self.x[mask], [label for label, keep in zip(self.y, mask) if keep], self.classes)

    def class_counts(self) -> dict[str, int]:
        """Number of labeled rows per class."""
        counts = {label: 0 for label in self.classes}
        for label in self.y:
            if label is not None:
                counts[label] += 1
        return counts


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.3,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Stratified split: ``test_fraction`` of each class goes to the test set."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = derive_rng(seed, "dataset", "split")
    test_mask = np.zeros(len(dataset), dtype=bool)
    labels = np.asarray(dataset.y, dtype=object)
    for label in dataset.classes:
        indices = np.flatnonzero(labels == label)
        if len(indices) == 0:
            continue
        rng.shuffle(indices)
        n_test = max(1, int(round(len(indices) * test_fraction)))
        if n_test >= len(indices):
            n_test = len(indices) - 1
        if n_test > 0:
            test_mask[indices[:n_test]] = True
    return dataset.subset(~test_mask), dataset.subset(test_mask)
