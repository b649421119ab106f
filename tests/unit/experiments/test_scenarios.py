"""Tests for scenario construction and caching."""

import numpy as np
import pytest

from repro.core.base import Reshaper
from repro.experiments.scenarios import SCHEME_NAMES, EvaluationScenario
from repro.schemes import build_raw, legacy_scheme_spec
from repro.schemes.base import IdentityScheme
from repro.traffic.apps import AppType


@pytest.fixture(scope="module")
def scenario():
    return EvaluationScenario(
        seed=5, train_duration=30.0, eval_duration=30.0, train_sessions=2, eval_sessions=2
    )


class TestTableSchemes:
    def test_scheme_order_matches_tables(self):
        assert SCHEME_NAMES == ("Original", "FH", "RA", "RR", "OR")

    def test_original_is_identity_rest_are_reshapers(self):
        assert isinstance(build_raw(legacy_scheme_spec("Original")), IdentityScheme)
        for name in ("FH", "RA", "RR", "OR"):
            assert isinstance(build_raw(legacy_scheme_spec(name)), Reshaper)

    def test_interface_count_propagates(self):
        assert build_raw(legacy_scheme_spec("RA", 5)).interfaces == 5
        assert build_raw(legacy_scheme_spec("OR", 5)).interfaces == 5


class TestScenario:
    def test_training_traces_cached(self, scenario):
        first = scenario.training_traces()
        second = scenario.training_traces()
        assert first["chatting"][0] is second["chatting"][0]

    def test_training_covers_all_apps(self, scenario):
        train = scenario.training_traces()
        assert set(train) == {app.value for app in AppType}
        assert all(len(traces) == 2 for traces in train.values())

    def test_evaluation_sessions_count(self, scenario):
        evaluation = scenario.evaluation_by_app()
        assert all(len(traces) == 2 for traces in evaluation.values())

    def test_evaluation_disjoint_from_training(self, scenario):
        train = scenario.training_traces()["video"][0]
        held_out = scenario.evaluation_trace(AppType.VIDEO, 0)
        assert not np.array_equal(train.times, held_out.times)

    @pytest.mark.parametrize("field", ["train_sessions", "eval_sessions"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_empty_split(self, field, count):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {count}"):
            EvaluationScenario(**{field: count})

    def test_same_seed_reproduces(self):
        a = EvaluationScenario(seed=9, train_duration=20.0, train_sessions=1,
                               eval_duration=20.0, eval_sessions=1)
        b = EvaluationScenario(seed=9, train_duration=20.0, train_sessions=1,
                               eval_duration=20.0, eval_sessions=1)
        ta = a.training_traces()["gaming"][0]
        tb = b.training_traces()["gaming"][0]
        assert np.array_equal(ta.times, tb.times)


class TestAccessorHygiene:
    """Returned mappings are defensive copies with aligned key types."""

    def test_mutating_evaluation_lists_does_not_corrupt_corpus(self, scenario):
        first = scenario.evaluation_by_app()
        first[AppType.VIDEO].clear()
        first[AppType.VIDEO].append("garbage")
        again = scenario.evaluation_by_app()
        assert len(again[AppType.VIDEO]) == 2
        assert all(not isinstance(t, str) for t in again[AppType.VIDEO])

    def test_mutating_training_lists_does_not_corrupt_corpus(self, scenario):
        scenario.training_traces()["video"].clear()
        assert len(scenario.training_traces()["video"]) == 2
        scenario.training_by_app()[AppType.VIDEO].clear()
        assert len(scenario.training_by_app()[AppType.VIDEO]) == 2

    def test_trace_objects_still_shared_for_identity_caching(self, scenario):
        # Downstream caches (WindowCache) key flows by id(); copies are
        # of the *containers* only, never of the traces.
        first = scenario.evaluation_by_app()[AppType.VIDEO][0]
        second = scenario.evaluation_by_app()[AppType.VIDEO][0]
        assert first is second

    def test_key_types_aligned_across_splits(self, scenario):
        assert all(isinstance(k, AppType) for k in scenario.training_by_app())
        assert all(isinstance(k, AppType) for k in scenario.evaluation_by_app())
        assert all(isinstance(k, str) for k in scenario.training_traces())
        assert all(isinstance(k, str) for k in scenario.evaluation_by_label())
        assert set(scenario.evaluation_by_label()) == set(scenario.training_traces())



class TestCorpusRoundTrip:
    """save_corpus -> from_store hydration is bit-identical to generation."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory, scenario):
        path = str(tmp_path_factory.mktemp("corpus") / "scenario.store")
        store = scenario.save_corpus(path)
        return path, store

    def test_recipe_round_trips(self, scenario, stored):
        _, store = stored
        assert store.scenario == scenario.corpus_recipe()

    def test_hydrated_scenario_matches_generated(self, scenario, stored):
        path, _ = stored
        hydrated = EvaluationScenario.from_store(path)
        assert hydrated.seed == scenario.seed
        assert hydrated.apps == scenario.apps
        for split in ("training_by_app", "evaluation_by_app"):
            generated = getattr(scenario, split)()
            loaded = getattr(hydrated, split)()
            assert list(loaded) == list(generated)
            for app in generated:
                for a, b in zip(generated[app], loaded[app]):
                    assert a.times.tobytes() == b.times.tobytes()
                    assert a.sizes.tobytes() == b.sizes.tobytes()
                    assert a.label == b.label

    def test_hydration_is_zero_copy_and_lazy(self, stored):
        path, _ = stored
        hydrated = EvaluationScenario.from_store(path)
        trace = hydrated.training_by_app()[AppType.VIDEO][0]
        assert isinstance(np.asarray(trace.times).base, np.memmap) or isinstance(
            trace.times, np.memmap
        )

    def test_from_store_rejects_recipeless_store(self, tmp_path, scenario):
        from repro.storage import write_traces

        trace = scenario.training_by_app()[AppType.VIDEO][0]
        path = str(tmp_path / "raw.store")
        write_traces(path, [trace])
        with pytest.raises(ValueError, match="no scenario recipe"):
            EvaluationScenario.from_store(path)

    def test_from_store_rejects_incomplete_corpus(self, tmp_path, scenario):
        from repro.storage import TraceStore

        path = str(tmp_path / "partial.store")
        with TraceStore.create(path, scenario=scenario.corpus_recipe()) as writer:
            writer.add(
                scenario.training_by_app()[AppType.VIDEO][0], role="train"
            )
        with pytest.raises(ValueError, match="does not match its own recipe"):
            EvaluationScenario.from_store(path)
