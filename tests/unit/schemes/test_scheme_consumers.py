"""Scheme objects across their consumers: runner, adaptive loop, grid."""

import numpy as np
import pytest

from repro.experiments.registry import ScenarioParams
from repro.experiments.runner import ExperimentRunner
from repro.schemes import (
    SchemeSpec,
    build_scheme,
    build_stack,
    legacy_scheme_spec,
)
from repro.stream.adaptive import AdaptiveReshaper
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator

TINY = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0,
    train_sessions=1, eval_sessions=1,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(TINY.build())


@pytest.fixture(scope="module")
def trace():
    return TrafficGenerator(seed=31).generate(AppType.VIDEO, duration=15.0)


class TestRunnerSchemes:
    def test_scheme_identity_is_stable_per_recipe(self, runner):
        spec = legacy_scheme_spec("OR")
        assert runner.scheme(spec) is runner.scheme(spec)
        # Aliases fold to the same canonical recipe (and memo entry).
        assert runner.scheme("OR") is runner.scheme("or")
        assert runner.scheme("or") is not runner.scheme("or+fh")

    def test_observable_flows_accepts_every_scheme_spelling(self, runner, trace):
        from_obj = runner.observable_flows(runner.scheme("or"), trace)
        from_str = runner.observable_flows("or", trace)
        from_spec = runner.observable_flows(SchemeSpec("or"), trace)
        from_tuple = runner.observable_flows((SchemeSpec("or"),), trace)
        for flows in (from_str, from_spec, from_tuple):
            assert all(a is b for a, b in zip(flows, from_obj))

    def test_evaluate_scheme_accepts_spec_directly(self, runner):
        by_spec = runner.evaluate_scheme(legacy_scheme_spec("OR"), 5.0)
        by_obj = runner.evaluate_scheme(runner.scheme(legacy_scheme_spec("OR")), 5.0)
        np.testing.assert_array_equal(
            by_spec.confusion.matrix, by_obj.confusion.matrix
        )

    def test_stacked_scheme_evaluates_end_to_end(self, runner):
        report = runner.evaluate_scheme("padding+or", 5.0)
        assert 0.0 <= report.mean_accuracy <= 100.0


class TestAdaptiveReshaperSchemes:
    def test_accepts_reshaper_backed_scheme(self):
        defender = AdaptiveReshaper(build_scheme("or"), seed=1)
        assert defender.interfaces == 3
        epoch, iface = defender.assign(0.0, 1500, 0)
        assert epoch == 0 and 0 <= iface < 3

    def test_rejects_defense_schemes(self):
        with pytest.raises(TypeError, match="no per-packet scheduler"):
            AdaptiveReshaper(build_scheme("padding"))
        with pytest.raises(TypeError, match="no per-packet scheduler"):
            AdaptiveReshaper(build_stack("padding+or"))

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError, match="Reshaper or reshaper-backed"):
            AdaptiveReshaper(object())


class TestSchemeParams:
    def test_fh_channels_param_must_parse(self):
        with pytest.raises(ValueError, match="channels"):
            build_scheme(SchemeSpec("fh", (("channels", ""),)))


class TestCombinedGridApi:
    def test_programmatic_entry_point(self):
        from repro.experiments import run_experiment

        result = run_experiment(
            "combined_grid",
            TINY,
            options={"schemes": "or,padding+or", "classifiers": "bayes"},
        )
        assert {cell.composition for cell in result.cells} == {"or", "padding+or"}
        best = result.best_defense()
        assert best.mean_accuracy == min(c.mean_accuracy for c in result.cells)

    def test_empty_scheme_list_rejected(self):
        from repro.experiments import registry as experiment_registry

        spec = experiment_registry.get("combined_grid")
        with pytest.raises(ValueError, match="at least one composition"):
            spec.build_cells(TINY, spec.resolve_options({"schemes": " , "}))

    def test_unknown_classifier_rejected(self):
        from repro.experiments import registry as experiment_registry

        spec = experiment_registry.get("combined_grid")
        with pytest.raises(ValueError, match="classifiers"):
            spec.build_cells(
                TINY, spec.resolve_options({"classifiers": "forest"})
            )

    def test_scheme_params_must_hit_a_stage(self):
        from repro.experiments import registry as experiment_registry

        spec = experiment_registry.get("combined_grid")
        with pytest.raises(ValueError, match="matches no stage"):
            spec.build_cells(
                TINY,
                spec.resolve_options(
                    {"schemes": "padding", "scheme_params": "interfaces=5"}
                ),
            )
