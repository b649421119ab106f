"""Experiment orchestration: train once, evaluate every scheme.

The runner owns a trained :class:`~repro.analysis.attack.AttackPipeline`
per :class:`~repro.analysis.attack.PipelineKey` (window, attackers,
features; the window normalized, so float jitter cannot retrain a
duplicate), all fitted by :func:`train_pipelines`, and is every
experiment's one evaluation path:
:meth:`ExperimentRunner.flow_feature_matrices` plans a scheme and
featurizes the plan, and :meth:`ExperimentRunner.stage_overhead`
reports the byte accounting of that same cached plan.  Schemes arrive
as registry specs (built and memoized per recipe by
:meth:`ExperimentRunner.scheme`) or as built
:class:`~repro.schemes.Scheme` objects; all work memoizes in one
shared :class:`~repro.analysis.batch.WindowCache`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis.attack import AttackPipeline, AttackReport, PipelineKey
from repro.analysis.batch import WindowCache, fused_flow_matrices
from repro.analysis.classifiers.selection import TaskMap
from repro.defenses.base import FusedPlan, StageOverhead
from repro.experiments.scenarios import EvaluationScenario
from repro.schemes import Scheme, SchemeSpec, build_stack, canonical_stack
from repro.traffic.apps import AppType
from repro.traffic.trace import Trace

__all__ = ["ExperimentRunner", "train_pipelines"]

#: What the evaluation entry points accept as "a scheme": a registry
#: spec / composition (the undefended original is ``"original"``) or an
#: already-built Scheme.
SchemeLike = "Scheme | SchemeSpec | Sequence[SchemeSpec] | str"


def _as_key(key: PipelineKey | float) -> PipelineKey:
    """``key``, or the default key of a bare window."""
    return key if isinstance(key, PipelineKey) else PipelineKey(key)


def train_pipelines(
    keys: Sequence[PipelineKey],
    scenario: EvaluationScenario,
    rows: Callable[[list, tuple], Sequence[tuple]] | None = None,
    map: TaskMap | None = None,
) -> dict[PipelineKey, AttackPipeline]:
    """Fit every key's pipeline on ``scenario``'s training split.

    The one training path.  ``rows(sessions, windows)`` gives, per
    training ``(app, session)``, its
    :func:`~repro.analysis.attack.training_rows` per distinct window
    (by default computed here, one
    :meth:`~EvaluationScenario.training_session_rows` at a time; the
    executor's stage maps the same helper over a pool), then each key is
    fit on its window's rows with ``map``.  No training trace is kept: a
    generated one is dropped and a stored one evicted.
    """
    windows = tuple(dict.fromkeys(key.window for key in keys))
    sessions = [
        (app, session)
        for app in scenario.apps
        for session in range(scenario.train_sessions)
    ]
    with obs.span("train.rows"):
        if rows is None:
            trace_rows = [
                scenario.training_session_rows(app, session, windows)
                for app, session in sessions
            ]
        else:
            trace_rows = rows(sessions, windows)
    trained: dict[PipelineKey, AttackPipeline] = {}
    for key in keys:
        column = windows.index(key.window)
        rows_by_label: dict[str, list[np.ndarray]] = {}
        for (app, _), by_window in zip(sessions, trace_rows):
            rows_by_label.setdefault(app.value, []).append(by_window[column])
        obs.add("pipeline.trained")
        trained[key] = key.build(scenario.seed).fit_rows(rows_by_label, map=map)
    return trained


@dataclass
class ExperimentRunner:
    """Shared machinery for the table experiments."""

    scenario: EvaluationScenario
    _pipelines: dict[PipelineKey, AttackPipeline] = field(
        default_factory=dict, repr=False
    )
    _built: dict[tuple[SchemeSpec, ...], Scheme] = field(
        default_factory=dict, repr=False
    )
    _cache: WindowCache = field(default_factory=WindowCache, repr=False)

    @property
    def window_cache(self) -> WindowCache:
        """The runner's shared windowing/featurization cache."""
        return self._cache

    def pipeline(self, key: PipelineKey | float) -> AttackPipeline:
        """The trained pipeline ``key`` (a bare window: its default key) names."""
        key = _as_key(key)
        obs.add("pipeline.requests")
        if key not in self._pipelines:
            # The executor's training stage trains every key a spec
            # declares, at any --jobs, and the cells adopt() it; only an
            # undeclared key trains here, once per process.  That is
            # memoized shared state, so its telemetry goes to the proc.*
            # namespace.
            with obs.unattributed():
                self._pipelines.update(train_pipelines((key,), self.scenario))
        return self._pipelines[key]

    def has_pipeline(self, key: PipelineKey | float) -> bool:
        """Whether this runner already holds the pipeline ``key`` names."""
        return _as_key(key) in self._pipelines

    def adopt(self, key: PipelineKey | float, pipeline: AttackPipeline) -> None:
        """Install a pipeline trained elsewhere under ``key``.

        The executor's training stage fits exactly what :meth:`pipeline`
        would, through the same :func:`train_pipelines`, so adopting it
        changes nothing but where the training ran.  A key this runner
        already holds keeps its pipeline.
        """
        self._pipelines.setdefault(_as_key(key), pipeline)

    def scheme(
        self, composition: SchemeSpec | Sequence[SchemeSpec] | str
    ) -> Scheme:
        """The memoized :class:`~repro.schemes.Scheme` for a registry recipe.

        Accepts one spec, a stack of specs, or the ``"padding+or"``
        composition syntax.  Object identity is stable per canonical
        recipe, so the window cache reuses plans, flows and matrices
        across cells, windows, and experiments.  Seeding comes from the
        scenario (single schemes build with ``scenario.seed`` verbatim;
        stack stages get order-salted derivations — see
        :func:`repro.schemes.build_stack`).
        """
        if isinstance(composition, SchemeSpec):
            composition = (composition,)
        key = canonical_stack(composition)
        if key not in self._built:
            with obs.unattributed():
                self._built[key] = build_stack(key, self.scenario.seed)
        return self._built[key]

    def _resolve(self, scheme: "SchemeLike") -> Scheme:
        """The identity-stable Scheme behind ``scheme``."""
        if isinstance(scheme, Scheme):
            return scheme
        return self.scheme(scheme)

    def _plan(
        self, scheme: Scheme, trace: Trace
    ) -> tuple[FusedPlan, "obs.Subprofile | None"]:
        """The cached ``(plan, subprofile)`` of ``trace`` under ``scheme``."""
        return self._cache.fused_plan(
            scheme, trace, lambda: obs.captured(lambda: scheme.fused_plan(trace))
        )

    def fused_plan(self, scheme: "SchemeLike", trace: Trace) -> FusedPlan:
        """The cached plan of ``trace`` under ``scheme``.

        The plan :meth:`flow_feature_matrices` featurizes, and the one
        the streaming replay replays
        (:meth:`~repro.stream.PacketStream.replay_plan`).  Like every
        cached request, it replays the telemetry the planning recorded.
        """
        plan, subprofile = self._plan(self._resolve(scheme), trace)
        obs.replay(subprofile)
        return plan

    def flow_feature_matrices(
        self,
        scheme: "SchemeLike",
        trace: Trace,
        window: float,
    ) -> list[np.ndarray]:
        """Per-observable-flow feature matrices of ``trace`` under ``scheme``.

        The evaluation loop's one route: the scheme's cached plan (see
        :meth:`repro.schemes.Scheme.fused_plan`) is featurized straight
        off the trace's columns with zero intermediate ``Trace``
        allocation, bit-identical to featurizing ``apply``'s flows (the
        parity suite holds it to the materializing oracle element for
        element).  The matrix list memoizes per (scheme, trace, window)
        in the shared :class:`WindowCache` with capture-and-replay
        telemetry.
        """
        applied = self._resolve(scheme)
        plan = self.fused_plan(applied, trace)
        matrices, subprofile = self._cache.flow_matrices(
            applied,
            trace,
            window,
            lambda: obs.captured(lambda: fused_flow_matrices(trace, plan, window)),
        )
        obs.replay(subprofile)
        return matrices

    def stage_overhead(
        self, scheme: "SchemeLike", trace: Trace
    ) -> tuple[StageOverhead, ...]:
        """Per-stage byte accounting of ``trace`` under ``scheme``.

        Read from the same cached plan :meth:`flow_feature_matrices`
        featurizes, so accounting after featurizing never costs a second
        plan.  The totals are the sums over stages; the last stage's
        ``flows`` is the observable flow count.  Records no scheme
        telemetry (the featurization request replays it).
        """
        return self._plan(self._resolve(scheme), trace)[0].stages

    def evaluate_scheme(
        self,
        scheme: "SchemeLike",
        window: float,
    ) -> AttackReport:
        """Attack every application's evaluation sessions under one scheme.

        Featurization routes through :meth:`flow_feature_matrices`;
        scoring is the pipeline's :meth:`~AttackPipeline.evaluate_matrices`.
        """
        pipeline = self.pipeline(window)
        matrices_by_label: dict[str, list[np.ndarray]] = {}
        for label, traces in self.scenario.evaluation_by_label().items():
            matrices: list[np.ndarray] = []
            for trace in traces:
                matrices.extend(self.flow_feature_matrices(scheme, trace, window))
            matrices_by_label[label] = matrices
        return pipeline.evaluate_matrices(matrices_by_label)

    @staticmethod
    def app_order() -> tuple[AppType, ...]:
        """Row order used by every table (br, ch, ga, do, up, vo, bt)."""
        return (
            AppType.BROWSING,
            AppType.CHATTING,
            AppType.GAMING,
            AppType.DOWNLOADING,
            AppType.UPLOADING,
            AppType.VIDEO,
            AppType.BITTORRENT,
        )
