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
from functools import partial

from repro.analysis.attack import AttackReport
from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentSpec,
    GridEntry,
    ScenarioParams,
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
# Registry integration: a scoring grid, one cell per (window, scheme)
#
# This is the widest deterministic grid (2 schemes x N windows) and the
# headline target for `repro run window_sweep --jobs N`: every cell
# evaluates independently, so wall-clock scales with cores.
# ----------------------------------------------------------------------


def _windows(options: dict[str, object]) -> tuple[float, ...]:
    return parse_number_list(options["windows"])


def _grid(options: dict[str, object]) -> tuple[GridEntry, ...]:
    return tuple(
        (f"window={window:g}/scheme={scheme}", window, legacy_scheme_spec(scheme))
        for window in _windows(options)
        for scheme in ("Original", "OR")
    )


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[AttackReport],
) -> WindowSweepResult:
    means = [report.mean_accuracy for report in results]
    return WindowSweepResult(
        windows=_windows(options),
        original=tuple(means[0::2]),
        orthogonal=tuple(means[1::2]),
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
        build_cells=partial(
            registry.grid_cells, experiment="window_sweep", grid=_grid
        ),
        run_cell=registry.score_cell,
        combine=_combine,
        to_result=_to_result,
        options={"windows": "5,15,30,60"},
        pipelines=partial(registry.grid_pipelines, grid=_grid),
    )
)
