"""The classifier fit contract the executor's training stage relies on.

In a parallel run, ``best_classifier`` fits fresh copies of each
candidate in pool workers and keeps the winner's full-data fit, where
the serial path refits the very object it scored on the split.  The
two agree only if a fit is a pure function of (classifier
hyperparameters and seed, rows): refitting must not depend on what the
object learned before, and a pickled copy fitted in another process
must come out bit for bit the same.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.analysis.classifiers import (
    GaussianNaiveBayes,
    KNearestNeighbors,
    LinearSvm,
    MlpClassifier,
    best_classifier,
    default_attackers,
)

FACTORIES = {
    "svm": lambda: LinearSvm(seed=3, epochs=15),
    "nn": lambda: MlpClassifier(seed=3, epochs=15),
    "bayes": GaussianNaiveBayes,
    "knn": lambda: KNearestNeighbors(k=3),
}


def _blobs(seed: int, n_per_class: int = 60, n_classes: int = 3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 2.0, size=(n_classes, 5))
    x = np.vstack([center + rng.normal(0, 1.0, size=(n_per_class, 5)) for center in centers])
    y = np.repeat(np.arange(n_classes), n_per_class)
    order = rng.permutation(len(x))
    return x[order], y[order]


def _fit_pickled(payload):
    """Unpickle a classifier, fit it, and send the fitted state back."""
    blob, x, y, n_classes = payload
    classifier = pickle.loads(blob)
    classifier.fit(x, y, n_classes)
    return pickle.dumps(classifier)


@pytest.fixture(scope="module")
def data():
    x, y = _blobs(0)
    probe, _ = _blobs(1)
    return x, y, probe


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestFitIsPure:
    def test_refitting_on_the_same_rows_predicts_the_same(self, name, data):
        x, y, probe = data
        classifier = FACTORIES[name]().fit(x, y, 3)
        first = classifier.predict(probe)
        classifier.fit(x, y, 3)
        np.testing.assert_array_equal(classifier.predict(probe), first)

    def test_refit_after_other_rows_equals_a_fresh_fit(self, name, data):
        # The serial selection refits the object it fit on the split;
        # the pool keeps a fresh copy's full fit.
        x, y, probe = data
        reused = FACTORIES[name]().fit(x[::2], y[::2], 3).fit(x, y, 3)
        fresh = FACTORIES[name]().fit(x, y, 3)
        np.testing.assert_array_equal(reused.predict(probe), fresh.predict(probe))
        assert pickle.dumps(reused) == pickle.dumps(fresh)

    def test_pickled_copy_fitted_in_a_forked_worker_is_bit_identical(self, name, data):
        x, y, probe = data
        local = FACTORIES[name]().fit(x, y, 3)
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            blob = pool.apply(_fit_pickled, ((pickle.dumps(FACTORIES[name]()), x, y, 3),))
        remote = pickle.loads(blob)
        assert blob == pickle.dumps(local)
        np.testing.assert_array_equal(remote.predict(probe), local.predict(probe))


class TestSelectionThroughAPool:
    def test_pool_map_selects_the_serial_winner(self, data):
        x, y, probe = data
        serial, serial_accuracy = best_classifier(default_attackers(3), x, y, 3, seed=3)
        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            pooled, pooled_accuracy = best_classifier(
                default_attackers(3), x, y, 3, seed=3, map=pool.map
            )
        assert pooled.name == serial.name
        assert pooled_accuracy == serial_accuracy
        assert pickle.dumps(pooled) == pickle.dumps(serial)
        np.testing.assert_array_equal(pooled.predict(probe), serial.predict(probe))

    def test_map_leaves_the_candidates_unfitted(self, data):
        x, y, _ = data
        candidates = default_attackers(3)
        best_classifier(candidates, x, y, 3, seed=3, map=map)
        for candidate in candidates:
            with pytest.raises(RuntimeError, match="not fitted"):
                candidate.predict(x[:1])

    def test_ties_go_to_the_first_candidate_either_way(self, data):
        x, y, _ = data
        twins = [LinearSvm(seed=3, epochs=5), LinearSvm(seed=3, epochs=5)]
        serial, _ = best_classifier(twins, x, y, 3, seed=3)
        pooled, _ = best_classifier(
            [LinearSvm(seed=3, epochs=5), LinearSvm(seed=3, epochs=5)],
            x, y, 3, seed=3, map=map,
        )
        assert serial is twins[0]
        assert pickle.dumps(pooled) == pickle.dumps(serial)
