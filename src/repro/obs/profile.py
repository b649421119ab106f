"""Profiles: captured telemetry, per-cell and per-run, plus the v1 JSON.

A profile is what the executor assembles from the telemetry layer: one
:class:`CellProfile` per experiment cell (captured inside whatever
process ran the cell) merged into a :class:`RunProfile`, serialized by
:func:`profile_to_json` into the stable ``repro-profile`` v1 schema —
the same versioned-payload pattern as
:func:`repro.devtools.lint.findings_to_json`.  Extend the schema
additively only; CI archives these files as artifacts.

Determinism contract of the JSON payload (asserted by the integration
tests): with no timing sink attached, everything except the
``process`` blocks and per-cell ``gauges`` is bit-identical between
serial and ``--jobs N`` execution, under any start method.
``process`` holds the ``proc.*`` namespace (cache hit/miss splits,
memoized builds, the window cache's pinned-bytes gauge — see
:mod:`repro.obs.counters`); per-cell gauges may
attach to whichever cell first triggered a shared build, but their
max-merge at run level is deterministic.  :func:`deterministic_view`
strips exactly the excluded fields, so tests and downstream tooling
share one definition of "the deterministic part".
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.counters import (
    PROCESS_PREFIX,
    MetricsRegistry,
    as_process,
    collecting,
    replay_metrics,
    suspend_unattributed,
)
from repro.obs.spans import SpanNode, SpanRecorder, attach, recording
from repro.obs.timing import TimingSink

__all__ = [
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "CellProfile",
    "ProfileCapture",
    "RunProfile",
    "Subprofile",
    "capture",
    "captured",
    "deterministic_view",
    "merge_profiles",
    "profile_to_json",
    "profiles_equal_deterministic",
    "render_profile",
    "replay",
    "write_profile",
]

#: Schema identifiers of the JSON payload (``repro run --profile``).
PROFILE_FORMAT = "repro-profile"
PROFILE_VERSION = 1


@dataclass(frozen=True)
class Subprofile:
    """Telemetry captured around one unit of work, ready to replay.

    The window cache stores one of these next to each memoized flow
    list; :func:`replay` merges it into whatever collection context is
    active at request time.  Both fields are plain picklable data.
    """

    metrics: MetricsRegistry
    spans: SpanNode


@dataclass(frozen=True)
class CellProfile:
    """One cell's telemetry: the registry and span tree it recorded."""

    name: str
    metrics: MetricsRegistry
    spans: SpanNode


@dataclass(frozen=True)
class RunProfile:
    """A whole run: merged metrics/spans plus the per-cell profiles.

    ``process_spans`` holds the span tree of work the run did outside
    every cell (the executor's training stage); like the ``proc.*``
    counters it depends on process topology, so the payload reports it
    in the ``process`` block.
    """

    experiment: str
    metrics: MetricsRegistry
    spans: SpanNode
    cells: tuple[CellProfile, ...] = ()
    process_spans: SpanNode | None = None


class ProfileCapture:
    """A live collection context: one registry plus one span recorder."""

    def __init__(self, sink: TimingSink | None = None) -> None:
        self.metrics = MetricsRegistry()
        self.recorder = SpanRecorder(sink)

    @property
    def spans(self) -> SpanNode:
        """The root of the captured span tree."""
        return self.recorder.root

    def cell_profile(self, name: str) -> CellProfile:
        """Freeze the capture as one cell's profile."""
        return CellProfile(name=name, metrics=self.metrics, spans=self.spans)

    def run_profile(self, experiment: str) -> RunProfile:
        """Freeze the capture as a cell-less run profile (benchmarks)."""
        return RunProfile(
            experiment=experiment, metrics=self.metrics, spans=self.spans
        )


@contextmanager
def capture(sink: TimingSink | None = None) -> Iterator[ProfileCapture]:
    """Open a collection context; instrumented code records into it.

    Usage::

        with obs.capture() as cap:
            ...instrumented work...
        cap.metrics.counters["scheme.apply_calls"]
    """
    cap = ProfileCapture(sink)
    with collecting(cap.metrics), recording(cap.recorder):
        yield cap


def captured(
    fn: Callable[[], object], sink: TimingSink | None = None
) -> tuple[object, Subprofile]:
    """Run ``fn`` under a private capture; return its value + telemetry.

    The capture-and-replay half of cache-transparent counting: callers
    store the :class:`Subprofile` next to the memoized value and
    :func:`replay` it on every request, so counts follow logical
    requests rather than physical execution.  With a ``sink`` the
    captured spans carry the seconds they took where ``fn`` ran (a
    worker process, for the executor's training stage).
    """
    cap = ProfileCapture(sink)
    # The subprofile holds logical names even when the caller is inside
    # an unattributed build: routing is decided at replay time, by the
    # context that *requests* the memoized value.
    with collecting(cap.metrics), recording(cap.recorder), suspend_unattributed():
        value = fn()
    return value, Subprofile(metrics=cap.metrics, spans=cap.spans)


def replay(subprofile: Subprofile | None) -> None:
    """Merge a captured :class:`Subprofile` into the active context."""
    if subprofile is None:
        return
    replay_metrics(subprofile.metrics)
    attach(subprofile.spans)


def merge_profiles(
    experiment: str,
    cells: Iterable[CellProfile | None],
    process: Subprofile | None = None,
) -> RunProfile:
    """Fold per-cell profiles (in cell order) into one run profile.

    ``None`` entries (cells executed without capture) are skipped; the
    merge is associative/commutative per the registry's laws, so the
    fold order only affects cosmetic key insertion — the JSON payload
    sorts keys anyway.  ``process`` is telemetry of work done once per
    run outside the cells: its counters join the ``proc.*`` namespace,
    its gauges max-merge as usual, and its spans become
    :attr:`RunProfile.process_spans`.
    """
    kept = tuple(cell for cell in cells if cell is not None)
    metrics = MetricsRegistry.merged(cell.metrics for cell in kept)
    spans = SpanNode("run")
    for cell in kept:
        spans.merge_in(cell.spans)
    if process is not None:
        metrics.merge_in(as_process(process.metrics))
    return RunProfile(
        experiment=experiment,
        metrics=metrics,
        spans=spans,
        cells=kept,
        process_spans=None if process is None else process.spans,
    )


# ----------------------------------------------------------------------
# Serialization: the stable v1 payload, its text rendering, and the
# deterministic projection the tests compare.
# ----------------------------------------------------------------------


def _split_process(mapping: dict) -> tuple[dict, dict]:
    """Partition a name-sorted mapping into (deterministic, process)."""
    deterministic = {
        name: value
        for name, value in mapping.items()
        if not name.startswith(PROCESS_PREFIX)
    }
    process = {
        name: value
        for name, value in mapping.items()
        if name.startswith(PROCESS_PREFIX)
    }
    return deterministic, process


def _metrics_blocks(metrics: MetricsRegistry) -> dict[str, object]:
    view = metrics.as_dict()
    counters, proc_counters = _split_process(view["counters"])
    gauges, proc_gauges = _split_process(view["gauges"])
    histograms, proc_histograms = _split_process(view["histograms"])
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "process": {
            "counters": proc_counters,
            "gauges": proc_gauges,
            "histograms": proc_histograms,
        },
    }


def _span_children(root: SpanNode) -> list[dict[str, object]]:
    # The synthetic "run" root is a stack anchor, not a span; the
    # payload starts at its children.
    return [node.as_dict() for node in root.children.values()]


def profile_to_json(profile: RunProfile) -> dict[str, object]:
    """The stable JSON schema of ``repro run --profile``.

    ``{"format": "repro-profile", "version": 1, "experiment": name,
    "counters"/"gauges"/"histograms": {...}, "process": {counters,
    gauges, histograms}, "spans": [tree...], "cells": [{cell, counters,
    gauges, histograms, process, spans}, ...]}`` — the run-level
    ``process`` block also holds ``spans`` when the run did work
    outside its cells — consumed by the CI
    artifact and the benchmark drivers; extend additively only.
    """
    payload: dict[str, object] = {
        "format": PROFILE_FORMAT,
        "version": PROFILE_VERSION,
        "experiment": profile.experiment,
    }
    payload.update(_metrics_blocks(profile.metrics))
    if profile.process_spans is not None and profile.process_spans.children:
        payload["process"]["spans"] = _span_children(profile.process_spans)
    payload["spans"] = _span_children(profile.spans)
    payload["cells"] = [
        {"cell": cell.name}
        | _metrics_blocks(cell.metrics)
        | {"spans": _span_children(cell.spans)}
        for cell in profile.cells
    ]
    return payload


def deterministic_view(payload: dict) -> dict:
    """The bit-identity projection of a v1 profile payload.

    Drops the ``process`` blocks (cache topology), per-cell ``gauges``
    (a shared build's high-water mark attaches to whichever cell
    triggered it), and span ``seconds`` (present only under a timing
    sink).  Everything left must match between serial and parallel
    execution exactly — this is the object the determinism tests
    compare.
    """

    def strip_seconds(node: dict) -> dict:
        return {
            "name": node["name"],
            "count": node["count"],
            "children": [strip_seconds(child) for child in node["children"]],
        }

    view = {
        key: payload[key]
        for key in ("format", "version", "experiment", "counters", "gauges", "histograms")
    }
    view["spans"] = [strip_seconds(node) for node in payload["spans"]]
    view["cells"] = [
        {
            "cell": cell["cell"],
            "counters": cell["counters"],
            "histograms": cell["histograms"],
            "spans": [strip_seconds(node) for node in cell["spans"]],
        }
        for cell in payload["cells"]
    ]
    return view


def _render_mapping(title: str, mapping: dict, lines: list[str]) -> None:
    if not mapping:
        return
    lines.append(f"{title}:")
    width = max(len(name) for name in mapping)
    for name, value in mapping.items():
        if isinstance(value, dict):  # histogram buckets
            body = ", ".join(f"{label}: {count}" for label, count in value.items())
            lines.append(f"  {name.ljust(width)}  {{{body}}}")
        else:
            lines.append(f"  {name.ljust(width)}  {value}")


def _render_span_dict(node: dict, indent: str, lines: list[str]) -> None:
    label = f"{indent}{node['name']} ×{node['count']}"
    seconds = node.get("seconds")
    if seconds is not None:
        label += f"  [{seconds * 1e3:.2f} ms]"
    lines.append(label)
    for child in node["children"]:
        _render_span_dict(child, indent + "  ", lines)


def render_profile(payload: dict) -> str:
    """Human-readable rendering of a v1 profile payload (text format)."""
    lines = [
        f"profile: {payload['experiment']} "
        f"({payload['format']} v{payload['version']}, "
        f"{len(payload.get('cells', []))} cell(s))"
    ]
    if payload.get("spans"):
        lines.append("spans:")
        for node in payload["spans"]:
            _render_span_dict(node, "  ", lines)
    _render_mapping("counters", payload.get("counters", {}), lines)
    _render_mapping("gauges", payload.get("gauges", {}), lines)
    _render_mapping("histograms", payload.get("histograms", {}), lines)
    process = payload.get("process", {})
    if process.get("spans"):
        lines.append("process spans:")
        for node in process["spans"]:
            _render_span_dict(node, "  ", lines)
    _render_mapping("process counters", process.get("counters", {}), lines)
    _render_mapping("process gauges", process.get("gauges", {}), lines)
    _render_mapping("process histograms", process.get("histograms", {}), lines)
    return "\n".join(lines)


def write_profile(payload: dict, path: str) -> None:
    """Persist a profile payload as pretty-printed JSON at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def profiles_equal_deterministic(a: dict, b: dict) -> bool:
    """True when two payloads agree on their deterministic projection."""
    return deterministic_view(a) == deterministic_view(b)
