"""End-to-end streaming acceptance: parity with batch, CLI arms race.

The subsystem's acceptance bars, verbatim:

* for a deterministic scenario, an ``OnlineAttack`` over a
  ``PacketStream`` replay produces the same window predictions
  bit-for-bit as the batch ``AttackPipeline.evaluate_flows`` path given
  identical training data and window boundaries;
* ``repro run arms_race`` completes end-to-end under both serial and
  ``--jobs 2`` execution with identical results.
"""

import contextlib
import json
from unittest import mock

import numpy as np
import pytest

from repro.cli import main
from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.experiments import parallel
from repro.experiments.registry import ScenarioParams
from repro.experiments.runner import ExperimentRunner
from repro.schemes import legacy_scheme_spec
from repro.stream import OnlineAttack, PacketStream

TINY = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0, train_sessions=1, eval_sessions=1
)

TINY_FLAGS = [
    "--seed", "5",
    "--train-duration", "30", "--eval-duration", "20",
    "--train-sessions", "1", "--eval-sessions", "1",
]


@pytest.fixture(autouse=True)
def fresh_worker_state():
    parallel.clear_worker_state()
    yield
    parallel.clear_worker_state()


class TestStreamingParity:
    """Online evaluation over a replayed capture == the batch pipeline."""

    @pytest.mark.parametrize("scheme", ["Original", "OR", "RR"])
    def test_window_predictions_match_evaluate_flows(self, scheme):
        runner = ExperimentRunner(TINY.build())
        pipeline = runner.pipeline(5.0)
        spec = legacy_scheme_spec(scheme, 3)

        flows_by_label = {}
        streams = []
        for label, traces in runner.scenario.evaluation_by_label().items():
            flows = []
            for trace in traces:
                flows.extend(runner.scheme(spec).apply(trace).observable_flows)
            flows_by_label[label] = flows
            streams.extend(
                PacketStream.replay(flow, station=f"{label}/f{index}", label=label)
                for index, flow in enumerate(flows)
            )

        attacker = OnlineAttack.from_pipeline(pipeline)
        attacker.consume(PacketStream.merge(streams))
        batch = pipeline.evaluate_flows(flows_by_label)

        streaming = attacker.report()
        assert streaming.confusion.classes == batch.confusion.classes
        np.testing.assert_array_equal(
            streaming.confusion.matrix, batch.confusion.matrix
        )
        assert streaming.mean_accuracy == batch.mean_accuracy

    def test_per_window_prediction_sequences_match(self):
        """Stronger than matrix equality: flow-by-flow label sequences."""
        runner = ExperimentRunner(TINY.build())
        pipeline = runner.pipeline(5.0)
        spec = legacy_scheme_spec("OR", 3)
        from repro.analysis.batch import flow_feature_matrix

        for label, traces in runner.scenario.evaluation_by_label().items():
            for trace in traces:
                for flow in runner.scheme(spec).apply(trace).observable_flows:
                    attacker = OnlineAttack.from_pipeline(pipeline)
                    attacker.consume(
                        PacketStream.replay(flow, station="f", label=label)
                    )
                    expected = pipeline.classify_matrix(
                        flow_feature_matrix(flow, 5.0)
                    )
                    assert [p.predicted for p in attacker.predictions] == expected


    @pytest.mark.parametrize("composition", ["morphing", "or+morphing"])
    def test_a_gather_plan_replays_like_the_applied_flows(self, composition):
        """Morphing's plan replays the packets of its materialized flows."""
        runner = ExperimentRunner(TINY.build())
        pipeline = runner.pipeline(5.0)
        scheme = runner.scheme(composition)
        planned, applied = [], []
        for label, traces in runner.scenario.evaluation_by_label().items():
            index = 0
            for trace in traces:
                plan = runner.fused_plan(scheme, trace)
                stations = [f"{label}/f{index + f}" for f in range(plan.n_flows)]
                planned.append(
                    PacketStream.replay_plan(trace, plan, stations, label=label)
                )
                for flow in scheme.apply(trace).observable_flows:
                    stream = PacketStream.replay(flow, f"{label}/f{index}", label)
                    applied.append(stream)
                    index += 1
        via_plan = OnlineAttack.from_pipeline(pipeline)
        via_plan.consume(PacketStream.merge(planned))
        via_flows = OnlineAttack.from_pipeline(pipeline)
        via_flows.consume(PacketStream.merge(applied))
        assert via_plan.predictions
        assert via_plan.predictions == via_flows.predictions


class TestStreamReplayExperiment:
    def test_every_scheme_reports_parity(self):
        result = parallel.run_experiment("stream_replay", TINY)
        for scheme in result.schemes:
            assert result.identical(scheme), f"{scheme} diverged from batch"

    def test_serial_replay_streams_plans_and_materializes_no_flow(self):
        """The five default schemes all plan: the replay reads their
        cached plans, so no flow is materialized or pinned."""
        result = parallel.run_experiment_result("stream_replay", TINY, profile=True)
        profile = result.meta["profile"]
        assert len(result.rows) == 5
        assert "proc.window_cache.flow_misses" not in profile["process"]["counters"]
        assert profile["process"]["gauges"]["proc.window_cache.pinned_bytes"] > 0
        # One plan source per evaluation trace, per scheme.
        traces = 7 * TINY.eval_sessions
        assert profile["counters"]["stream.traces_replayed"] == 5 * traces

        def names(nodes):
            for node in nodes:
                yield node["name"]
                yield from names(node["children"])

        assert not [n for n in names(profile["spans"]) if n.startswith("scheme.apply[")]

    def test_morphing_replays_its_plan_in_parity(self):
        result = parallel.run_experiment_result(
            "stream_replay", TINY, options={"schemes": "morphing"}, profile=True
        )
        assert result.extras["parity"] == {"morphing": True}
        profile = result.meta["profile"]
        counters = [*profile["counters"], *profile["process"]["counters"]]
        removed = (
            "batch.fallback_flows",
            "proc.window_cache.applied_",
            "proc.window_cache.flow_",
        )
        assert not [name for name in counters if name.startswith(removed)]
        assert profile["counters"]["stream.traces_replayed"] == 7 * TINY.eval_sessions

    def test_serial_matches_jobs2(self):
        serial = parallel.run_experiment_result("stream_replay", TINY)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment_result("stream_replay", TINY, jobs=2)
        assert json.loads(serial.to_json()) == json.loads(fanned.to_json())


class TestDriftExperiment:
    def test_online_mode_actually_trains(self):
        result = parallel.run_experiment(
            "drift", TINY, options={"phase_duration": 20.0}
        )
        assert result.trained["frozen"] == 0
        assert result.trained["online"] > 0
        assert result.windows["frozen"] == result.windows["online"]

    def test_bayes_learner_runs(self):
        result = parallel.run_experiment(
            "drift", TINY, options={"phase_duration": 15.0, "learner": "bayes"}
        )
        assert result.trained["online"] > 0


class TestArmsRaceEndToEnd:
    """Acceptance: `repro run arms_race` serial == --jobs 2."""

    @pytest.mark.smoke
    def test_cli_serial_and_jobs2_identical(self, capsys, tmp_path):
        serial_path = tmp_path / "serial.json"
        fanned_path = tmp_path / "fanned.json"
        assert (
            main(["run", "arms_race", *TINY_FLAGS, "--set", "threshold=0.6",
                  "--output", str(serial_path)])
            == 0
        )
        parallel.clear_worker_state()
        assert (
            main(["run", "arms_race", *TINY_FLAGS, "--set", "threshold=0.6",
                  "--jobs", "2", "--output", str(fanned_path)])
            == 0
        )
        serial = json.loads(serial_path.read_text())
        fanned = json.loads(fanned_path.read_text())
        assert serial == fanned
        assert [row[0] for row in serial["rows"]] == ["static", "adaptive"]

    def test_adaptive_row_shows_the_loop_ran(self):
        result = parallel.run_experiment(
            "arms_race", TINY, options={"threshold": 0.5, "cooldown": 5.0}
        )
        static = result.outcomes["static"]
        adaptive = result.outcomes["adaptive"]
        assert static.reallocations == 0
        assert adaptive.reallocations > 0
        assert adaptive.flows_observed > static.flows_observed

    @pytest.mark.parametrize("scheme", ["OR", "RR", "RA"])
    def test_runs_without_the_per_packet_route(self, scheme):
        """Neither a scheduler's ``assign_packet`` nor per-event stream
        iteration is on arms_race's path: both defender modes run on
        interface columns and chunks."""

        def forbidden(*args, **kwargs):
            raise AssertionError("arms_race took the per-packet route")

        schedulers = (
            RandomReshaper, RoundRobinReshaper, OrthogonalReshaper,
            FrequencyHoppingScheduler,
        )
        with contextlib.ExitStack() as stack:
            for scheduler in schedulers:
                stack.enter_context(
                    mock.patch.object(scheduler, "assign_packet", forbidden)
                )
            stack.enter_context(mock.patch.object(PacketStream, "__iter__", forbidden))
            result = parallel.run_experiment(
                "arms_race",
                TINY,
                options={"scheme": scheme, "threshold": 0.5, "cooldown": 0.0},
            )
        assert result.outcomes["static"].windows > 0
        assert result.outcomes["adaptive"].reallocations > 0


THRESHOLD_RANGE = r"confidence_threshold must be in \(0, 1\]"


class TestStreamingOptionsFailFast:
    """Bad streaming options raise from ``run_experiment`` when the cells
    are built, before the training stage generates or fits anything."""

    @pytest.mark.parametrize(
        "name, options, message",
        [
            ("arms_race", {"threshold": 2.0}, THRESHOLD_RANGE),
            ("arms_race", {"threshold": 0.0}, THRESHOLD_RANGE),
            ("arms_race", {"cooldown": -1.0}, "cooldown must be >= 0"),
            ("arms_race", {"interfaces": 0}, r"range sets for I in \[2, 3, 5\], got 0"),
            ("arms_race", {"interfaces": 0, "scheme": "RR"}, "interfaces must be >= 1"),
            ("drift", {"phase_duration": 0.0}, "duration must be > 0, got 0.0"),
            ("drift", {"phase_duration": -5.0}, "duration must be > 0"),
        ],
        ids=[
            "threshold=2", "threshold=0", "cooldown=-1", "interfaces=0",
            "interfaces=0-RR", "phase_duration=0", "phase_duration=-5",
        ],
    )
    def test_raises_before_the_training_stage(self, name, options, message):
        def no_training(*args, **kwargs):
            raise AssertionError("the training stage ran")

        with mock.patch.object(parallel, "_train_stage", no_training):
            with pytest.raises(ValueError, match=message):
                parallel.run_experiment(name, TINY, options=options)
