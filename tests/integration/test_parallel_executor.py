"""Serial/parallel equivalence of the experiment executor.

The acceptance bar for the orchestration subsystem: ``--jobs N``
reproduces the serial path's numbers exactly (same seed ⇒ same report),
and per-cell seeds don't depend on the process start method.  With
profiling on, the same bar extends to telemetry: the deterministic
projection of the captured profile (counters, histograms, span
structure — everything outside the ``process`` block) is bit-identical
between serial and parallel execution too.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.experiments import parallel, registry
from repro.experiments.registry import ScenarioParams

TINY = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0, train_sessions=1, eval_sessions=1
)


@pytest.fixture(autouse=True)
def fresh_worker_state():
    parallel.clear_worker_state()
    yield
    parallel.clear_worker_state()


def _assert_reports_equal(ours, reference):
    assert set(ours) == set(reference)
    for scheme in reference:
        np.testing.assert_array_equal(
            ours[scheme].confusion.matrix, reference[scheme].confusion.matrix
        )
        assert ours[scheme].confusion.classes == reference[scheme].confusion.classes


class TestJobsEquivalence:
    """jobs=1 and jobs=N produce identical reports for a small scenario."""

    def test_table2_parallel_matches_serial(self):
        serial = parallel.run_experiment("table2", TINY)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment("table2", TINY, jobs=4)
        _assert_reports_equal(fanned.reports, serial.reports)

    def test_window_sweep_parallel_matches_serial(self):
        options = {"windows": "5,10"}
        serial = parallel.run_experiment("window_sweep", TINY, options=options)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment(
            "window_sweep", TINY, options=options, jobs=4
        )
        assert fanned == serial  # frozen dataclass of float tuples

    def test_table6_parallel_matches_serial(self):
        serial = parallel.run_experiment("table6", TINY)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment("table6", TINY, jobs=2)
        assert fanned.accuracy == serial.accuracy
        assert fanned.padding_overhead == serial.padding_overhead
        assert fanned.morphing_overhead == serial.morphing_overhead


class TestEveryExperimentEquivalent:
    """The acceptance bar, verbatim: every registered deterministic
    experiment's rendered report — and its captured profile's
    deterministic projection — is identical at jobs=1 and jobs=2."""

    #: Shrink the expensive knobs so the full catalog runs in seconds.
    QUICK_OPTIONS = {
        "fig1": {"duration": 5.0},
        "fig4": {"duration": 5.0},
        "fig5": {"duration": 5.0},
        "table4": {"windows": "5,10"},
        "table5": {"interfaces": "2,3"},
        "window_sweep": {"windows": "5,10"},
        "tpc": {"duration": 8.0, "stations": 2},
        "stream_replay": {"schemes": "Original,OR"},
        "drift": {"phase_duration": 15.0},
        "arms_race": {"threshold": 0.6},
    }

    @pytest.mark.parametrize(
        "name",
        [spec.name for spec in registry.all_specs() if spec.deterministic],
    )
    def test_rendered_report_identical_at_any_job_count(self, name):
        options = self.QUICK_OPTIONS.get(name)
        serial = parallel.run_experiment_result(
            name, TINY, options=options, profile=True
        )
        parallel.clear_worker_state()
        fanned = parallel.run_experiment_result(
            name, TINY, options=options, jobs=2, profile=True
        )
        serial_json = json.loads(serial.to_json())
        fanned_json = json.loads(fanned.to_json())
        serial_profile = serial_json.pop("profile")
        fanned_profile = fanned_json.pop("profile")
        # The report itself is unchanged by profiling and by fan-out...
        assert fanned_json == serial_json
        # ...and every deterministic counter/histogram/span is
        # bit-identical between serial and --jobs 2 (only the proc.*
        # block and per-cell gauges may differ with process topology).
        assert obs.profiles_equal_deterministic(fanned_profile, serial_profile)
        if len(fanned_profile["cells"]) > 1:
            # A fanned-out run trains every pipeline its cells request
            # in the training stage: a spec that does not declare a key
            # would retrain it, and regenerate the split, in each worker.
            for cell in fanned_profile["cells"]:
                assert "proc.pipeline.trained" not in cell["process"]["counters"]
                assert "proc.train.traces" not in cell["process"]["counters"]


class TestNoTrainingSplitOutlivesARun:
    """A serial run trains exactly its declared keys, in its stage, and
    keeps none of the training traces it featurized."""

    @pytest.mark.parametrize(
        "name",
        [spec.name for spec in registry.all_specs() if spec.deterministic],
    )
    def test_serial_run_keeps_no_training_split(self, name):
        spec = registry.get(name)
        options = TestEveryExperimentEquivalent.QUICK_OPTIONS.get(name)
        result = parallel.run_experiment_result(name, TINY, options=options, profile=True)
        assert not parallel.shared_scenario(TINY)._train
        profile = result.meta["profile"]
        keys = () if spec.pipelines is None else spec.pipelines(
            TINY, spec.resolve_options(options)
        )
        trained = profile["process"]["counters"].get("proc.pipeline.trained", 0)
        assert trained == len(set(keys))
        for cell in profile["cells"]:
            assert "proc.pipeline.trained" not in cell["process"]["counters"]
            assert "proc.train.traces" not in cell["process"]["counters"]


class TestStartMethodStability:
    """Per-cell seeds and cell results don't depend on the start method."""

    def test_cell_seeds_identical_regardless_of_execution_context(self):
        # Seeds are derived in the parent from (root seed, cell name)
        # via a pure hash: building the same cells twice — or anywhere
        # else — yields the same seeds.
        spec = registry.get("table2")
        options = spec.resolve_options(None)
        first = [cell.seed for cell in spec.build_cells(TINY, options)]
        second = [cell.seed for cell in spec.build_cells(TINY, options)]
        assert first == second

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_fig1_identical_across_start_methods(self, start_method):
        options = {"duration": 5.0}
        serial = parallel.run_experiment("fig1", TINY, options=options)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment(
            "fig1", TINY, options=options, jobs=2, start_method=start_method
        )
        assert set(fanned) == set(serial)
        for app in serial:
            for ours, reference in zip(fanned[app], serial[app]):
                np.testing.assert_array_equal(ours, reference)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_profile_counters_identical_across_start_methods(self, start_method):
        serial = parallel.run_experiment_result("table1", TINY, profile=True)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment_result(
            "table1", TINY, jobs=2, start_method=start_method, profile=True
        )
        assert obs.profiles_equal_deterministic(
            fanned.meta["profile"], serial.meta["profile"]
        )


class TestProfileOptIn:
    """Profiling is strictly opt-in: the default output is untouched."""

    def test_profile_key_absent_without_flag(self):
        plain = parallel.run_experiment_result("table1", TINY)
        assert dict(plain.meta) == {}
        assert "profile" not in json.loads(plain.to_json())

    def test_profiling_changes_nothing_but_adds_the_payload(self):
        plain = parallel.run_experiment_result("table1", TINY)
        parallel.clear_worker_state()
        profiled = parallel.run_experiment_result("table1", TINY, profile=True)
        payload = json.loads(profiled.to_json())
        profile = payload.pop("profile")
        assert payload == json.loads(plain.to_json())
        assert profile["format"] == "repro-profile"
        assert profile["version"] == 1
        # One capture per cell, folded additively at run level.
        assert profile["counters"]["executor.cells_run"] == len(profile["cells"])
        assert profile["counters"]["scheme.apply_calls"] >= len(profile["cells"])


class TestTrainingStage:
    """At jobs=2 the declared pipelines train once, before the cells run.

    One window (table2) and several (window_sweep): the run matches the
    serial one under both start methods, the stage trains exactly the
    declared windows, every training trace is generated once across all
    processes, and no worker trains or regenerates the training split.
    """

    CASES = {"table2": None, "window_sweep": {"windows": "5,10"}}
    TRAINING_TRACES = 7 * TINY.train_sessions  # apps x sessions

    @staticmethod
    def _run(name, options, jobs=1, start_method=None, **flags):
        parallel.clear_worker_state()
        result = parallel.run_experiment_result(
            name, TINY, options=options, jobs=jobs, start_method=start_method,
            profile=True, **flags,
        )
        payload = json.loads(result.to_json())
        return payload, payload.pop("profile")

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_serial_fork_and_spawn_agree(self, name):
        serial, serial_profile = self._run(name, self.CASES[name])
        for start_method in ("fork", "spawn"):
            fanned, fanned_profile = self._run(
                name, self.CASES[name], jobs=2, start_method=start_method
            )
            assert fanned == serial, start_method
            assert obs.deterministic_view(fanned_profile) == obs.deterministic_view(
                serial_profile
            ), start_method

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_training_runs_once_across_the_pool(self, name, start_method):
        spec = registry.get(name)
        keys = spec.pipelines(TINY, spec.resolve_options(self.CASES[name]))
        windows = [key.window for key in keys]
        _, profile = self._run(name, self.CASES[name], jobs=2, start_method=start_method)
        process = profile["process"]["counters"]
        assert process["proc.pipeline.trained"] == len(keys)
        assert process["proc.train.traces"] == self.TRAINING_TRACES
        for cell in profile["cells"]:
            assert "proc.pipeline.trained" not in cell["process"]["counters"]
            assert "proc.train.traces" not in cell["process"]["counters"]
        # The stage's telemetry is kept, in the process block.
        (stage,) = profile["process"]["spans"]
        label = ",".join(f"{window:g}" for window in windows)
        assert stage["name"] == f"stage.train[W={label}]"
        counts = {child["name"]: child["count"] for child in stage["children"]}
        # Per window: a split fit and a full fit of each candidate.
        assert counts == {
            "train.rows": 1,
            "fit[svm]": 2 * len(windows),
            "fit[nn]": 2 * len(windows),
            "select": len(windows),
        }

    def test_stored_corpus_stage_reads_the_stored_split(self, tmp_path):
        path = str(tmp_path / "tiny.store")
        TINY.build().save_corpus(path)
        stored = ScenarioParams.for_corpus(path)
        runs = []
        for jobs in (1, 2):
            parallel.clear_worker_state()
            result = parallel.run_experiment_result(
                "table2", stored, jobs=jobs, start_method="fork", profile=True
            )
            payload = json.loads(result.to_json())
            runs.append((payload, payload.pop("profile")))
        (serial, serial_profile), (fanned, fanned_profile) = runs
        assert fanned == serial
        assert obs.profiles_equal_deterministic(fanned_profile, serial_profile)
        process = fanned_profile["process"]["counters"]
        assert process["proc.pipeline.trained"] == 1
        assert "proc.train.traces" not in process  # nothing generated

    @pytest.mark.parametrize("name", ["table2", "stream_replay"])
    def test_serial_run_trains_in_its_stage_once_per_process(self, name):
        _, profile = self._run(name, None)
        process = profile["process"]["counters"]
        assert process["proc.pipeline.trained"] == 1
        assert process["proc.train.traces"] == self.TRAINING_TRACES
        (stage,) = profile["process"]["spans"]
        assert stage["name"] == "stage.train[W=5]"
        counts = {child["name"]: child["count"] for child in stage["children"]}
        # Serial selection: a split fit of each candidate, then one
        # refit of the winner.
        assert counts == {"train.rows": 1, "fit[svm]": 1, "fit[nn]": 2, "select": 1}
        for cell in profile["cells"]:
            assert "proc.pipeline.trained" not in cell["process"]["counters"]
        # The training traces were dropped once featurized.
        assert not parallel.shared_scenario(TINY)._train
        # A second run in the same process reuses the window's pipeline.
        again = parallel.run_experiment_result(name, TINY, profile=True)
        process = again.meta["profile"]["process"]
        assert "proc.pipeline.trained" not in process["counters"]
        assert "spans" not in process

    def test_timed_stage_spans_carry_seconds(self):
        _, profile = self._run("table2", None, jobs=2, start_method="fork", timing=True)
        (stage,) = profile["process"]["spans"]
        assert stage["seconds"] > 0
        assert all(child["seconds"] > 0 for child in stage["children"])

    def test_spec_without_declared_keys_runs_no_stage(self):
        assert registry.get("table1").pipelines is None
        _, profile = self._run("table1", None, jobs=2, start_method="fork")
        assert "spans" not in profile["process"]
        assert "proc.pipeline.trained" not in profile["process"]["counters"]


class TestDeclaredKeys:
    """Custom pipelines are declared keys the stage trains, too."""

    TRAINING_TRACES = 7 * TINY.train_sessions

    @staticmethod
    def _stage_counts(profile):
        (stage,) = profile["process"]["spans"]
        return stage["name"], {
            child["name"]: child["count"] for child in stage["children"]
        }

    def test_combined_grid_featurizes_once_for_every_classifier(self):
        result = parallel.run_experiment_result(
            "combined_grid", TINY,
            options={"schemes": "or", "classifiers": "svm,bayes"}, profile=True,
        )
        profile = result.meta["profile"]
        process = profile["process"]["counters"]
        assert process["proc.pipeline.trained"] == 2
        assert process["proc.train.traces"] == self.TRAINING_TRACES
        name, counts = self._stage_counts(profile)
        assert name == "stage.train[W=5]"
        # Serial selection of one candidate: a split fit, then the refit.
        assert counts == {"train.rows": 1, "fit[svm]": 2, "fit[bayes]": 2, "select": 2}

    def test_drift_modes_share_one_pipeline_and_online_learns_on_a_copy(self):
        from repro.analysis.attack import PipelineKey
        from repro.experiments.runner import ExperimentRunner

        result = parallel.run_experiment_result(
            "drift", TINY, options={"phase_duration": 15.0}, profile=True
        )
        profile = result.meta["profile"]
        assert profile["process"]["counters"]["proc.pipeline.trained"] == 1
        _, counts = self._stage_counts(profile)
        assert counts["fit[svm]"] == 2
        key = PipelineKey(5.0, ("svm",))
        shared = parallel.shared_runner(TINY).pipeline(key).classifier
        reference = ExperimentRunner(TINY.build()).pipeline(key).classifier
        assert result.rows[1][-1] > 0  # the online cell did partial_fit
        np.testing.assert_array_equal(shared.weights_, reference.weights_)
        np.testing.assert_array_equal(shared.bias_, reference.bias_)

    def test_table6_after_table2_trains_only_its_own_key(self):
        parallel.run_experiment("table2", TINY)
        result = parallel.run_experiment_result("table6", TINY, profile=True)
        profile = result.meta["profile"]
        assert profile["process"]["counters"]["proc.pipeline.trained"] == 1
        name, counts = self._stage_counts(profile)
        assert name == "stage.train[W=5]"
        assert counts == {"train.rows": 1, "fit[svm]": 1, "fit[nn]": 2, "select": 1}
