"""Tests for the experiment registry and its cell decomposition."""

import pytest

import repro.experiments  # noqa: F401  (importing registers every spec)
from repro.experiments import registry
from repro.experiments.registry import (
    ScenarioParams,
    make_cell,
    parse_number_list,
)
from repro.traffic.apps import AppType
from repro.util.rng import derive_seed

EXPECTED_NAMES = {
    "table1", "table2", "table3", "table4", "table5", "table6",
    "fig1", "fig4", "fig5", "window_sweep", "combined", "tpc", "scalability",
}


class TestRegistryContents:
    def test_every_expected_experiment_is_registered(self):
        assert EXPECTED_NAMES <= set(registry.names())

    def test_get_unknown_name_raises_with_catalog(self):
        with pytest.raises(KeyError, match="registered experiments"):
            registry.get("table99")

    def test_duplicate_registration_rejected(self):
        spec = registry.get("table2")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)

    def test_all_specs_matches_names(self):
        assert tuple(spec.name for spec in registry.all_specs()) == registry.names()


class TestCellDecomposition:
    @pytest.mark.parametrize(
        "name,cells",
        [
            ("table1", 7), ("table2", 5), ("table3", 5), ("table4", 4),
            ("table5", 3), ("table6", 7), ("fig1", 7), ("fig4", 1),
            ("fig5", 1), ("window_sweep", 8), ("combined", 1), ("tpc", 1),
            ("scalability", 1),
        ],
    )
    def test_default_cell_counts(self, name, cells):
        spec = registry.get(name)
        built = spec.build_cells(ScenarioParams(), spec.resolve_options(None))
        assert len(built) == cells

    def test_cells_are_deterministic_and_ordered(self):
        spec = registry.get("window_sweep")
        params = ScenarioParams(seed=11)
        options = spec.resolve_options(None)
        first = spec.build_cells(params, options)
        second = spec.build_cells(params, options)
        assert [cell.name for cell in first] == [cell.name for cell in second]
        assert [cell.seed for cell in first] == [cell.seed for cell in second]

    def test_cell_names_unique_within_experiment(self):
        for spec in registry.all_specs():
            cells = spec.build_cells(ScenarioParams(), spec.resolve_options(None))
            names = [cell.name for cell in cells]
            assert len(names) == len(set(names)), spec.name

    def test_cell_seeds_derive_from_root_seed_and_name(self):
        cell = make_cell("table2", "scheme=OR", {}, root_seed=7)
        assert cell.seed == derive_seed(7, "cell", "table2", "scheme=OR")
        # Distinct cells, distinct streams; distinct roots, distinct streams.
        assert cell.seed != make_cell("table2", "scheme=RA", {}, 7).seed
        assert cell.seed != make_cell("table2", "scheme=OR", {}, 8).seed


class TestOptions:
    def test_overrides_coerced_to_default_types(self):
        spec = registry.get("table2")
        resolved = spec.resolve_options({"window": "60", "interfaces": "5"})
        assert resolved["window"] == 60.0 and isinstance(resolved["window"], float)
        assert resolved["interfaces"] == 5 and isinstance(resolved["interfaces"], int)

    def test_unknown_option_raises(self):
        with pytest.raises(KeyError, match="unknown option"):
            registry.get("table2").resolve_options({"windoe": "5"})

    def test_defaults_not_mutated_by_resolution(self):
        spec = registry.get("table2")
        spec.resolve_options({"window": "60"})
        assert spec.options["window"] == 5.0


class TestParseNumberList:
    def test_floats_by_default_with_spaces(self):
        assert parse_number_list("5, 60") == (5.0, 60.0)

    def test_int_cast(self):
        assert parse_number_list("2,3,5", int) == (2, 3, 5)

    def test_blank_segments_ignored(self):
        assert parse_number_list("5,,10,") == (5.0, 10.0)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="comma-separated"):
            parse_number_list(",")

    def test_non_numeric_raises(self):
        with pytest.raises(ValueError):
            parse_number_list("5;60")


class TestScenarioParams:
    def test_build_matches_fields(self):
        params = ScenarioParams(seed=3, train_duration=30.0, eval_duration=20.0,
                                train_sessions=1, eval_sessions=2)
        scenario = params.build()
        assert scenario.seed == 3
        assert scenario.train_duration == 30.0
        assert scenario.eval_duration == 20.0
        assert scenario.train_sessions == 1
        assert scenario.eval_sessions == 2

    def test_as_dict_round_trip(self):
        params = ScenarioParams(seed=3)
        assert ScenarioParams(**params.as_dict()) == params

    def test_hashable_for_worker_cache_keys(self):
        assert ScenarioParams(seed=3) == ScenarioParams(seed=3)
        assert hash(ScenarioParams(seed=3)) == hash(ScenarioParams(seed=3))


class TestScenarioParamsCorpus:
    """ScenarioParams.corpus: picklable cells that hydrate from disk."""

    @pytest.fixture(scope="class")
    def corpus_path(self, tmp_path_factory):
        from repro.experiments.scenarios import EvaluationScenario

        scenario = EvaluationScenario(
            seed=5, train_duration=30.0, eval_duration=20.0,
            train_sessions=1, eval_sessions=1,
        )
        path = str(tmp_path_factory.mktemp("params") / "params.store")
        scenario.save_corpus(path)
        return path

    def test_for_corpus_reads_the_stored_recipe(self, corpus_path):
        params = ScenarioParams.for_corpus(corpus_path)
        assert params.seed == 5
        assert params.train_duration == 30.0
        assert params.eval_sessions == 1
        assert params.corpus == corpus_path

    def test_for_corpus_params_are_picklable(self, corpus_path):
        import pickle

        params = ScenarioParams.for_corpus(corpus_path)
        assert pickle.loads(pickle.dumps(params)) == params

    def test_build_hydrates_identical_traces(self, corpus_path):
        import numpy as np

        hydrated = ScenarioParams.for_corpus(corpus_path).build()
        generated = ScenarioParams(
            seed=5, train_duration=30.0, eval_duration=20.0,
            train_sessions=1, eval_sessions=1,
        ).build()
        left = hydrated.training_session(AppType.GAMING, 0)
        right = generated.training_session(AppType.GAMING, 0)
        assert np.array_equal(left.times, right.times)

    def test_build_rejects_mismatched_params(self, corpus_path):
        params = ScenarioParams(seed=99, corpus=corpus_path)
        with pytest.raises(ValueError, match="disagree with the corpus"):
            params.build()

    def test_for_corpus_rejects_recipeless_path(self, tmp_path):
        with pytest.raises(ValueError):
            ScenarioParams.for_corpus(str(tmp_path))
