"""Unit tests for profile capture, merging, and the v1 JSON schema."""

import json
import pickle

from repro.obs import (
    PROFILE_FORMAT,
    PROFILE_VERSION,
    CellProfile,
    MetricsRegistry,
    PerfCounterSink,
    SpanNode,
    Subprofile,
    add,
    capture,
    captured,
    deterministic_view,
    gauge,
    merge_profiles,
    observe,
    profile_to_json,
    profiles_equal_deterministic,
    render_profile,
    replay,
    span,
    unattributed,
    write_profile,
)


def _cell(name: str, counters: dict, span_counts: dict | None = None) -> CellProfile:
    spans = SpanNode("run")
    for span_name, count in (span_counts or {}).items():
        spans.child(span_name).count = count
    return CellProfile(name=name, metrics=MetricsRegistry(counters), spans=spans)


class TestCapture:
    def test_capture_collects_counters_and_spans(self):
        with capture() as cap:
            with span("cell[x]"):
                add("work", 2)
                observe("fanout", 3)
                gauge("peak", 7.0)
        assert cap.metrics.counters == {"work": 2}
        assert cap.spans.children["cell[x]"].count == 1
        profile = cap.cell_profile("x")
        assert profile.name == "x"
        assert profile.metrics is cap.metrics

    def test_captured_returns_value_and_replayable_subprofile(self):
        def work():
            add("inner", 5)
            with span("apply"):
                pass
            return "value"

        value, subprofile = captured(work)
        assert value == "value"
        assert subprofile.metrics.counters == {"inner": 5}

        # Replaying twice doubles counters (logical requests) and spans.
        with capture() as cap:
            with span("cell"):
                replay(subprofile)
                replay(subprofile)
        assert cap.metrics.counters == {"inner": 10}
        assert cap.spans.children["cell"].children["apply"].count == 2

    def test_replay_none_is_a_no_op(self):
        with capture() as cap:
            replay(None)
        assert cap.metrics.counters == {}

    def test_captured_even_while_outer_capture_is_paused(self):
        # The cache stores subprofiles regardless of the outer context,
        # so a warm cache replays correctly in a later profiled run.
        with capture() as cap:
            with unattributed():
                _, subprofile = captured(lambda: add("inner"))
        assert cap.metrics.counters == {}  # nothing leaked to the outer
        assert subprofile.metrics.counters == {"inner": 1}

    def test_cell_profiles_pickle(self):
        with capture() as cap:
            with span("cell[x]"):
                add("work")
        profile = cap.cell_profile("x")
        clone = pickle.loads(pickle.dumps(profile))
        assert clone.metrics == profile.metrics
        assert clone.spans.as_dict() == profile.spans.as_dict()


class TestMergeAndSchema:
    def test_merge_profiles_skips_none_and_folds(self):
        cells = [
            _cell("a", {"work": 1, "proc.build": 1}, {"cell[a]": 1}),
            None,
            _cell("b", {"work": 2}, {"cell[b]": 1}),
        ]
        profile = merge_profiles("exp", cells)
        assert profile.experiment == "exp"
        assert profile.metrics.counters == {"work": 3, "proc.build": 1}
        assert len(profile.cells) == 2
        assert {c.name for c in profile.cells} == {"a", "b"}

    def test_payload_shape_and_process_split(self):
        profile = merge_profiles("exp", [_cell("a", {"work": 1, "proc.build": 2})])
        payload = profile_to_json(profile)
        assert payload["format"] == PROFILE_FORMAT
        assert payload["version"] == PROFILE_VERSION
        assert payload["experiment"] == "exp"
        assert payload["counters"] == {"work": 1}
        assert payload["process"]["counters"] == {"proc.build": 2}
        [cell] = payload["cells"]
        assert cell["cell"] == "a"
        assert cell["counters"] == {"work": 1}
        assert cell["process"]["counters"] == {"proc.build": 2}
        json.dumps(payload)  # JSON-serializable as-is

    def test_process_subprofile_joins_the_process_block(self):
        with capture() as stage:
            with span("stage.train[W=5]"):
                add("pipeline.trained")
                observe("rows", 3)
                gauge("peak", 9.0)
        process = Subprofile(metrics=stage.metrics, spans=stage.spans)
        profile = merge_profiles(
            "exp", [_cell("a", {"work": 1}, {"cell[a]": 1})], process=process
        )
        payload = profile_to_json(profile)
        assert payload["counters"] == {"work": 1}
        assert payload["gauges"] == {"peak": 9.0}  # max-merged like any gauge
        assert payload["process"]["counters"] == {"proc.pipeline.trained": 1}
        assert payload["process"]["histograms"] == {"proc.rows": {"2-3": 1}}
        [stage_span] = payload["process"]["spans"]
        assert stage_span["name"] == "stage.train[W=5]"
        assert [node["name"] for node in payload["spans"]] == ["cell[a]"]
        # The process block is outside the bit-identity contract.
        plain = profile_to_json(
            merge_profiles("exp", [_cell("a", {"work": 1}, {"cell[a]": 1})])
        )
        assert "spans" not in plain["process"]
        plain["gauges"] = payload["gauges"]
        assert profiles_equal_deterministic(payload, plain)
        assert "process spans:\n  stage.train[W=5] ×1" in render_profile(payload)

    def test_captured_with_a_sink_times_its_spans(self):
        def work():
            with span("fit[nn]"):
                add("fits")
            return "done"

        value, subprofile = captured(work, PerfCounterSink())
        assert value == "done"
        assert subprofile.spans.children["fit[nn]"].seconds >= 0.0
        _, untimed = captured(work)
        assert untimed.spans.children["fit[nn]"].seconds is None

    def test_deterministic_view_strips_exactly_the_excluded_fields(self):
        with capture(PerfCounterSink()) as cap:
            with span("cell[x]"):
                add("work")
                add("proc.build")
                gauge("peak", 1.0)
        payload = profile_to_json(
            merge_profiles("exp", [cap.cell_profile("x")])
        )
        assert payload["spans"][0].get("seconds") is not None
        view = deterministic_view(payload)
        assert "process" not in view
        assert "seconds" not in view["spans"][0]
        assert "gauges" not in view["cells"][0]  # per-cell gauges dropped
        assert view["gauges"] == {"peak": 1.0}  # run-level max is kept
        assert view["counters"] == {"work": 1}

    def test_profiles_equal_deterministic_ignores_timing_and_process(self):
        def build(counts_proc: int, timed: bool):
            sink = PerfCounterSink() if timed else None
            with capture(sink) as cap:
                with span("cell[x]"):
                    add("work", 3)
                    add("proc.build", counts_proc)
            return profile_to_json(merge_profiles("exp", [cap.cell_profile("x")]))

        a = build(counts_proc=1, timed=False)
        b = build(counts_proc=9, timed=True)
        assert profiles_equal_deterministic(a, b)
        c = build(counts_proc=1, timed=False)
        c["counters"]["work"] = 4
        assert not profiles_equal_deterministic(a, c)


class TestRendering:
    def test_render_profile_text(self):
        with capture() as cap:
            with span("cell[x]"):
                add("work", 2)
                observe("fanout", 3)
                gauge("peak", 7.0)
                add("proc.build")
        text = render_profile(
            profile_to_json(merge_profiles("exp", [cap.cell_profile("x")]))
        )
        assert "profile: exp (repro-profile v1, 1 cell(s))" in text
        assert "cell[x] ×1" in text
        assert "work" in text and "2" in text
        assert "process counters" in text

    def test_write_profile_round_trips(self, tmp_path):
        with capture() as cap:
            add("work")
        payload = profile_to_json(merge_profiles("exp", [cap.cell_profile("x")]))
        path = tmp_path / "run.profile.json"
        write_profile(payload, str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == payload
