"""Eavesdropping-duration sweep: the paper's headline trend, densified.

Tables II/III sample W at 5 s and 60 s and observe that "the accuracies
in OR barely rise along with the increase of W" while every other scheme
improves for the attacker.  This experiment fills in the curve at
intermediate windows — the reproduction's analogue of a figure the paper
describes but does not plot.

One :class:`~repro.experiments.runner.ExperimentRunner` spans the whole
sweep, so its window cache reshapes each evaluation trace once per
scheme (not once per scheme *and* window) and the batch featurizer
computes each flow's feature matrix once per window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
    parse_number_list,
)
from repro.schemes import legacy_scheme_spec
from repro.util.results import ExperimentResult

__all__ = ["WindowSweepResult"]


@dataclass(frozen=True)
class WindowSweepResult:
    """Mean accuracy per (scheme, window)."""

    windows: tuple[float, ...]
    original: tuple[float, ...]
    orthogonal: tuple[float, ...]

    def rows(self) -> list[list[object]]:
        """One row per window: [W, original mean, OR mean, gap]."""
        out: list[list[object]] = []
        for window, original, orthogonal in zip(
            self.windows, self.original, self.orthogonal
        ):
            out.append([window, original, orthogonal, original - orthogonal])
        return out

    @property
    def or_spread(self) -> float:
        """Max minus min OR accuracy across windows (flatness measure)."""
        return max(self.orthogonal) - min(self.orthogonal)

    @property
    def original_gain(self) -> float:
        """How much the attacker gains on undefended traffic as W grows."""
        return self.original[-1] - self.original[0]


# ----------------------------------------------------------------------
# Registry integration: one cell per (window, scheme)
#
# This is the widest deterministic grid (2 schemes x N windows) and the
# headline target for `repro run window_sweep --jobs N`: every cell
# trains/evaluates independently, so wall-clock scales with cores.
# ----------------------------------------------------------------------


def _windows(options: dict[str, object]) -> tuple[float, ...]:
    return parse_number_list(options["windows"])


def _grid(options: dict[str, object]) -> tuple[tuple[float, str], ...]:
    return tuple(
        (window, scheme)
        for window in _windows(options)
        for scheme in ("Original", "OR")
    )


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return tuple(
        make_cell(
            "window_sweep",
            f"window={window:g}/scheme={scheme}",
            {
                "scenario": params,
                "window": window,
                "scheme": scheme,
                "spec": legacy_scheme_spec(scheme),
            },
            params.seed,
        )
        for window, scheme in _grid(options)
    )


def _run_cell(cell: ExperimentCell) -> float:
    runner = parallel.shared_runner(cell.params["scenario"])
    scheme = runner.scheme(cell.params["spec"])
    return runner.evaluate_scheme(scheme, float(cell.params["window"])).mean_accuracy


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[float],
) -> WindowSweepResult:
    by_cell = dict(zip(_grid(options), results))
    windows = _windows(options)
    return WindowSweepResult(
        windows=windows,
        original=tuple(by_cell[(window, "Original")] for window in windows),
        orthogonal=tuple(by_cell[(window, "OR")] for window in windows),
    )


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: WindowSweepResult,
) -> ExperimentResult:
    return ExperimentResult(
        experiment="window_sweep",
        title="Eavesdropping-duration sweep — mean accuracy %, Original vs OR",
        headers=("W (s)", "Original mean %", "OR mean %", "gap"),
        rows=tuple(tuple(row) for row in result.rows()),
        params={**params.as_dict(), **options},
        extras={"or_spread": result.or_spread, "original_gain": result.original_gain},
    )


registry.register(
    ExperimentSpec(
        name="window_sweep",
        title="W-sweep — OR stays flat while the attacker improves elsewhere",
        description=(
            "Mean accuracy of Original and OR across eavesdropping windows; "
            "one cell per (window, scheme) — the widest parallel grid."
        ),
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={"windows": "5,15,30,60"},
        pipelines=registry.windows_option,
    )
)
