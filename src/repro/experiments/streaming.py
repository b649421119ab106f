"""Streaming experiments: replay parity, concept drift, and the arms race.

Three registered experiments drive the streaming engine
(:mod:`repro.stream`) from the unified CLI:

* ``stream_replay`` — the whole evaluation corpus replayed as one
  merged live capture per scheme.  The streaming attacker must agree
  with the batch pipeline *bit-for-bit* (same confusion matrix), so the
  experiment doubles as a standing parity audit: its table prints both
  paths side by side with an ``identical`` column.
* ``drift`` — every station switches applications mid-capture.  A
  frozen attacker (batch-trained, never updated) is compared with a
  prequential learner that ``partial_fit``s each labeled window right
  after predicting it — the online-classifier protocol at work.
* ``arms_race`` — the adaptive defender
  (:class:`~repro.stream.adaptive.AdaptiveReshaper`) against the
  streaming eavesdropper, with a static-defender baseline.  Cells are
  the two defender modes, so ``repro run arms_race --jobs 2`` fans them
  out and must reproduce the serial numbers exactly.

All three decompose into independent deterministic cells and therefore
inherit the registry's serial/parallel equivalence guarantee.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.analysis.attack import AttackReport, PipelineKey
from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
)
from repro.experiments.scenarios import SCHEME_NAMES
from repro.schemes import (
    DEFAULT_INTERFACES,
    LEGACY_SCHEME_SPECS,
    build_raw,
    get_scheme,
    legacy_scheme_spec,
)
from repro.stream.adaptive import AdaptiveReshaper, ArmsRaceOutcome, run_arms_race
from repro.stream.attack import OnlineAttack
from repro.stream.source import PacketStream
from repro.traffic.generator import TrafficGenerator
from repro.util.results import ExperimentResult
from repro.util.validation import require_positive

__all__ = [
    "ArmsRaceResult",
    "DriftResult",
    "StreamReplayResult",
]

#: Session offsets keeping drift captures disjoint from training
#: (sessions < 100) and held-out evaluation (sessions >= 100) corpora.
_DRIFT_SESSION_BASE = 700


# ----------------------------------------------------------------------
# stream_replay — live replay must match the batch pipeline exactly
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamReplayResult:
    """Per-scheme streaming vs batch comparison."""

    schemes: tuple[str, ...]
    streaming: dict[str, AttackReport]
    batch: dict[str, AttackReport]
    windows: dict[str, int]

    def identical(self, scheme: str) -> bool:
        """True when the two paths produced the same confusion matrix."""
        ours = self.streaming[scheme].confusion
        reference = self.batch[scheme].confusion
        return ours.classes == reference.classes and bool(
            (ours.matrix == reference.matrix).all()
        )


#: Canonical registry key -> table-column display spelling, for the
#: five legacy schemes; other registered schemes display canonically.
_DISPLAY_OF = {canonical: display for display, canonical in LEGACY_SCHEME_SPECS}


def _replay_schemes(options: dict[str, object]) -> tuple[str, ...]:
    """The scheme list, resolved through the registry.

    Accepts any registered *single* scheme in any spelling (``OR``,
    ``or``, ``padding``...) — the streaming replay works for byte-level
    defenses too, since it replays the same plan (size transform
    included) the batch path evaluates.  Names normalize to the legacy
    display spelling where one exists, so default cell names (and the
    golden snapshot) are unchanged.
    """
    parts = tuple(
        part.strip() for part in str(options["schemes"]).split(",") if part.strip()
    )
    if not parts:
        raise ValueError("schemes must name at least one registered scheme")
    resolved = []
    for part in parts:
        if "+" in part:
            raise ValueError(
                f"stream_replay evaluates one scheme at a time, got the "
                f"composition {part!r}; use combined_grid for stacks"
            )
        try:
            canonical = get_scheme(part).name
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        resolved.append(_DISPLAY_OF.get(canonical, canonical))
    return tuple(dict.fromkeys(resolved))


def _replay_cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return tuple(
        make_cell(
            "stream_replay",
            f"scheme={scheme}",
            {
                "scenario": params,
                "scheme": scheme,
                "spec": legacy_scheme_spec(scheme, int(options["interfaces"])),
                **options,
            },
            params.seed,
        )
        for scheme in _replay_schemes(options)
    )


def _replay_run_cell(cell: ExperimentCell) -> dict[str, object]:
    runner = parallel.shared_runner(cell.params["scenario"])
    window = float(cell.params["window"])
    # The streaming attacker replays the very same cached plan the batch
    # path featurizes (the same Scheme object, so the same WindowCache
    # entry): each evaluation trace is one column source whose stations
    # are the plan's flows.
    scheme = runner.scheme(cell.params["spec"])
    pipeline = runner.pipeline(window)

    streams = []
    for label, traces in runner.scenario.evaluation_by_label().items():
        flow_index = 0
        for trace in traces:
            plan = runner.fused_plan(scheme, trace)
            stations = [f"{label}/f{flow_index + f}" for f in range(plan.n_flows)]
            streams.append(PacketStream.replay_plan(trace, plan, stations, label=label))
            flow_index += plan.n_flows
    attacker = OnlineAttack.from_pipeline(pipeline)
    attacker.consume(PacketStream.merge(streams))

    return {
        "scheme": str(cell.params["scheme"]),
        "streaming": attacker.report(),
        "batch": runner.evaluate_scheme(scheme, window),
        "windows": len(attacker.predictions),
    }


def _replay_combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[dict[str, object]],
) -> StreamReplayResult:
    schemes = _replay_schemes(options)
    by_scheme = {result["scheme"]: result for result in results}
    return StreamReplayResult(
        schemes=schemes,
        streaming={s: by_scheme[s]["streaming"] for s in schemes},
        batch={s: by_scheme[s]["batch"] for s in schemes},
        windows={s: by_scheme[s]["windows"] for s in schemes},
    )


def _replay_to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: StreamReplayResult,
) -> ExperimentResult:
    rows = tuple(
        (
            scheme,
            result.windows[scheme],
            result.streaming[scheme].mean_accuracy,
            result.batch[scheme].mean_accuracy,
            "yes" if result.identical(scheme) else "NO",
        )
        for scheme in result.schemes
    )
    return ExperimentResult(
        experiment="stream_replay",
        title="Streaming replay — online attacker vs batch pipeline, per scheme",
        headers=("scheme", "windows", "streaming mean %", "batch mean %", "identical"),
        rows=rows,
        params={**params.as_dict(), **options},
        extras={
            "parity": {s: result.identical(s) for s in result.schemes},
        },
    )


registry.register(
    ExperimentSpec(
        name="stream_replay",
        title="Streaming replay — online evaluation matches batch bit-for-bit",
        description=(
            "Replays the merged evaluation capture through the streaming "
            "engine per scheme and compares the online attacker's confusion "
            "matrix with the batch pipeline's (they must be identical)."
        ),
        build_cells=_replay_cells,
        run_cell=_replay_run_cell,
        combine=_replay_combine,
        to_result=_replay_to_result,
        options={
            "window": 5.0,
            "interfaces": DEFAULT_INTERFACES,
            "schemes": ",".join(SCHEME_NAMES),
        },
        pipelines=registry.window_option,
    )
)


# ----------------------------------------------------------------------
# drift — frozen attacker vs prequential online learner
# ----------------------------------------------------------------------

_DRIFT_MODES: tuple[str, ...] = ("frozen", "online")


@dataclass(frozen=True)
class DriftResult:
    """Accuracy before/after the application switch, per attacker mode."""

    modes: tuple[str, ...]
    phase1: dict[str, float]
    phase2: dict[str, float]
    overall: dict[str, float]
    windows: dict[str, int]
    trained: dict[str, int]


#: The classifiers with ``partial_fit``, the only ones drift can update.
_DRIFT_LEARNERS = ("svm", "bayes")


def _drift_learner(options: dict[str, object]) -> PipelineKey:
    """Both modes' batch-trained attacker: one learner on every feature."""
    learner = str(options["learner"])
    if learner not in _DRIFT_LEARNERS:
        raise ValueError(f"learner must be 'svm' or 'bayes', got {learner!r}")
    return PipelineKey(float(options["window"]), (learner,))


def _drift_cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    _drift_learner(options)  # bad values fail here, before the training stage
    require_positive(float(options["phase_duration"]), "duration")
    return tuple(
        make_cell(
            "drift",
            f"mode={mode}",
            {"scenario": params, "mode": mode, **options},
            params.seed,
        )
        for mode in _DRIFT_MODES
    )


def _drift_run_cell(cell: ExperimentCell) -> dict[str, object]:
    runner = parallel.shared_runner(cell.params["scenario"])
    scenario = runner.scenario
    mode = str(cell.params["mode"])
    phase_duration = float(cell.params["phase_duration"])

    pipeline = runner.pipeline(_drift_learner(cell.params))
    if mode == "online":
        # partial_fit mutates the classifier in place, which must never
        # reach the pipeline other cells (or combined_grid and
        # population_scale, under the same key) share.
        pipeline = copy.deepcopy(pipeline)
    attacker = OnlineAttack.from_pipeline(pipeline, learn=(mode == "online"))

    # The drifting capture: station i runs app i, then switches to the
    # next app mid-stream under the same observable identity.
    apps = scenario.apps
    streams = []
    predecessor_of: dict[str, str] = {}
    generator = TrafficGenerator(seed=scenario.seed)
    for index, app in enumerate(apps):
        successor = apps[(index + 1) % len(apps)]
        station = f"sta{index}"
        predecessor_of[station] = app.value
        first = generator.generate(
            app, phase_duration, session=_DRIFT_SESSION_BASE + index
        )
        second = generator.generate(
            successor, phase_duration, session=_DRIFT_SESSION_BASE + 30 + index
        )
        streams.append(
            PacketStream.merge(
                [
                    PacketStream.replay(first, station=station, label=app.value),
                    PacketStream.replay(
                        second,
                        station=station,
                        label=successor.value,
                        offset=phase_duration,
                    ),
                ]
            )
        )
    attacker.consume(PacketStream.merge(streams))

    # Bucket each window by the phase its ground truth belongs to: a
    # window straddling the switch carries the most-recent packet's
    # label, so label-based bucketing keeps scoring consistent with the
    # truth it is scored against (start-time bucketing would not).
    scored = [p for p in attacker.predictions if p.true_label is not None]
    early = [p for p in scored if p.true_label == predecessor_of[p.flow]]
    late = [p for p in scored if p.true_label != predecessor_of[p.flow]]

    def accuracy(predictions) -> float:
        if not predictions:
            return float("nan")
        hits = sum(1 for p in predictions if p.predicted == p.true_label)
        return 100.0 * hits / len(predictions)

    return {
        "mode": mode,
        "phase1": accuracy(early),
        "phase2": accuracy(late),
        "overall": accuracy(scored),
        "windows": len(scored),
        "trained": attacker.windows_trained,
    }


def _drift_combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[dict[str, object]],
) -> DriftResult:
    by_mode = {result["mode"]: result for result in results}
    return DriftResult(
        modes=_DRIFT_MODES,
        phase1={m: by_mode[m]["phase1"] for m in _DRIFT_MODES},
        phase2={m: by_mode[m]["phase2"] for m in _DRIFT_MODES},
        overall={m: by_mode[m]["overall"] for m in _DRIFT_MODES},
        windows={m: by_mode[m]["windows"] for m in _DRIFT_MODES},
        trained={m: by_mode[m]["trained"] for m in _DRIFT_MODES},
    )


def _drift_to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: DriftResult,
) -> ExperimentResult:
    rows = tuple(
        (
            mode,
            result.windows[mode],
            result.phase1[mode],
            result.phase2[mode],
            result.overall[mode],
            result.trained[mode],
        )
        for mode in result.modes
    )
    return ExperimentResult(
        experiment="drift",
        title="Concept drift — frozen attacker vs prequential online learner",
        headers=(
            "attacker", "windows", "pre-switch %", "post-switch %",
            "overall %", "windows trained",
        ),
        rows=rows,
        params={**params.as_dict(), **options},
    )


registry.register(
    ExperimentSpec(
        name="drift",
        title="Concept drift — does an online learner track app switches?",
        description=(
            "Streams captures whose stations switch applications mid-stream; "
            "compares a frozen batch-trained attacker with one that "
            "partial_fits every labeled window prequentially."
        ),
        build_cells=_drift_cells,
        run_cell=_drift_run_cell,
        combine=_drift_combine,
        to_result=_drift_to_result,
        options={"window": 5.0, "phase_duration": 120.0, "learner": "svm"},
        pipelines=lambda params, options: (_drift_learner(options),),
    )
)


# ----------------------------------------------------------------------
# arms_race — adaptive defender vs streaming attacker
# ----------------------------------------------------------------------

_ARMS_MODES: tuple[str, ...] = ("static", "adaptive")


@dataclass(frozen=True)
class ArmsRaceResult:
    """Static vs adaptive defender under the same streaming attacker."""

    modes: tuple[str, ...]
    outcomes: dict[str, ArmsRaceOutcome]


def _arms_base_factory(scheme: str, interfaces: int, seed: int):
    """A fresh base reshaper per association, built from the registry.

    The defender's scheduler comes from the same scheme catalog the
    batch path evaluates; FH and the identity are excluded because the
    adaptive loop re-addresses virtual interfaces, which they lack.
    """
    try:
        canonical = get_scheme(scheme).name
    except KeyError:
        canonical = str(scheme)
    if canonical not in ("or", "rr", "ra"):
        raise ValueError(f"scheme must be one of OR, RR, RA; got {scheme!r}")
    spec = legacy_scheme_spec(canonical, interfaces)
    return lambda: build_raw(spec, seed)


def _arms_cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    # A defender built here fails on bad options before the training stage.
    base = _arms_base_factory(
        str(options["scheme"]), int(options["interfaces"]), params.seed
    )()
    AdaptiveReshaper(base, float(options["threshold"]), float(options["cooldown"]))
    return tuple(
        make_cell(
            "arms_race",
            f"defender={mode}",
            {"scenario": params, "mode": mode, **options},
            params.seed,
        )
        for mode in _ARMS_MODES
    )


def _arms_run_cell(cell: ExperimentCell) -> dict[str, object]:
    runner = parallel.shared_runner(cell.params["scenario"])
    mode = str(cell.params["mode"])
    window = float(cell.params["window"])
    outcome = run_arms_race(
        runner.scenario.evaluation_by_label(),
        runner.pipeline(window),
        _arms_base_factory(
            str(cell.params["scheme"]),
            int(cell.params["interfaces"]),
            runner.scenario.seed,
        ),
        adaptive=(mode == "adaptive"),
        confidence_threshold=float(cell.params["threshold"]),
        cooldown=float(cell.params["cooldown"]),
        seed=runner.scenario.seed,
    )
    return {"mode": mode, "outcome": outcome}


def _arms_combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[dict[str, object]],
) -> ArmsRaceResult:
    by_mode = {result["mode"]: result["outcome"] for result in results}
    return ArmsRaceResult(
        modes=_ARMS_MODES,
        outcomes={mode: by_mode[mode] for mode in _ARMS_MODES},
    )


def _arms_to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: ArmsRaceResult,
) -> ExperimentResult:
    rows = []
    for mode in result.modes:
        outcome = result.outcomes[mode]
        rows.append(
            (
                mode,
                outcome.report.mean_accuracy,
                outcome.windows,
                outcome.flows_observed,
                outcome.reallocations,
                outcome.config_overhead_bytes,
            )
        )
    return ExperimentResult(
        experiment="arms_race",
        title="Arms race — adaptive virtual-MAC reallocation vs streaming attacker",
        headers=(
            "defender", "mean acc %", "windows", "flows seen",
            "reallocations", "config bytes",
        ),
        rows=tuple(rows),
        params={**params.as_dict(), **options},
        extras={
            "accuracy_by_class": {
                mode: result.outcomes[mode].report.accuracy_by_class
                for mode in result.modes
            },
        },
    )


registry.register(
    ExperimentSpec(
        name="arms_race",
        title="Arms race — defender reallocates virtual MACs when recognized",
        description=(
            "Streams the evaluation corpus through the adaptive "
            "attacker-aware defender and its static baseline; reports "
            "attacker accuracy, flow fragmentation, and handshake overhead."
        ),
        build_cells=_arms_cells,
        run_cell=_arms_run_cell,
        combine=_arms_combine,
        to_result=_arms_to_result,
        options={
            "window": 5.0,
            "interfaces": DEFAULT_INTERFACES,
            "scheme": "OR",
            "threshold": 0.85,
            "cooldown": 10.0,
        },
        pipelines=registry.window_option,
    )
)
