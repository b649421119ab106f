"""PERF: fused plan→featurize vs the materializing apply→featurize path.

The fused evaluation path exists so defended-corpus evaluation never
materializes intermediate ``Trace`` objects: a scheme emits a
:class:`~repro.defenses.FusedPlan` (assignments + size transform, or a
gather of source packets with their output sizes) and
:func:`~repro.analysis.batch.fused_feature_matrices` gathers each
observable flow's feature matrix straight off the source columns —
here, a memmapped :class:`~repro.storage.TraceStore` corpus, the
deployment shape the optimization targets.

Hard assertions (the contract, not the wall-clock — single-core hosts
vary):

* fused matrices are **bit-identical** (``np.array_equal``) to the
  materializing path's, per flow, for every benched scheme;
* the fused leg featurizes every flow through the kernel and its
  ``batch.bytes_materialized`` high-water stays O(one flow) — under a
  6-float64-columns bound of the largest flow, never O(corpus);
* the fused path is faster in aggregate across the scheme grid
  (locally ~1.6-1.9x per scheme, ~1.7x aggregate at steady state —
  cold single-pass runs land higher; asserted conservatively at 1.4x).

Results persist to ``results/fused.{txt,json}`` via ``save_table`` and
the fused leg's telemetry to ``results/fused.profile.json`` via
``save_profile``.
"""

import time

import numpy as np

from repro import obs
from repro.analysis.batch import flow_feature_matrix, fused_flow_matrices
from repro.schemes import build_stack
from repro.storage.store import write_traces
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator

WINDOW = 5.0

#: Per-app capture length — heavy apps dominate, the corpus lands in
#: the low millions of packets.
DURATIONS = {
    AppType.DOWNLOADING: 600.0,
    AppType.BITTORRENT: 600.0,
    AppType.VIDEO: 600.0,
    AppType.BROWSING: 300.0,
    AppType.UPLOADING: 300.0,
}

#: The benched grid: every reshaping family plus a stacked composition.
SCHEMES = ("or", "rr", "fh", "pseudonym", "padding+or")


def _legacy(scheme, traces):
    matrices = []
    for trace in traces:
        for flow in scheme.apply(trace).observable_flows:
            matrices.append(flow_feature_matrix(flow, WINDOW))
    return matrices


def _fused(scheme, traces):
    matrices = []
    for trace in traces:
        plan = scheme.fused_plan(trace)
        matrices.extend(fused_flow_matrices(trace, plan, WINDOW))
    return matrices


def test_fused_vs_materializing(save_table, save_profile, tmp_path_factory, benchmark):
    root = tmp_path_factory.mktemp("bench-fused")
    generator = TrafficGenerator(seed=7)
    originals = [
        generator.generate(app, duration) for app, duration in DURATIONS.items()
    ]
    packets = sum(len(t) for t in originals)
    assert packets > 1_000_000, f"corpus too small to be representative: {packets}"

    # The corpus under test is memmapped — the fused kernel gathers
    # straight out of the store's read-only column maps.
    store = write_traces(str(root / "fused.store"), originals)
    traces = [store.trace(i) for i in range(len(originals))]
    largest_flow_bound = 0

    rows = []
    total_legacy = total_fused = 0.0
    for name in SCHEMES:
        scheme = build_stack(name, seed=7)

        # Best of two rounds per leg: the first pass through a fresh
        # allocation pattern pays page-fault noise that can swamp the
        # actual compute on shared hosts; the minimum is the steady
        # state both paths settle into.
        legacy_seconds = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            reference = _legacy(scheme, traces)
            legacy_seconds = min(legacy_seconds, time.perf_counter() - start)

        fused_seconds = float("inf")
        for attempt in range(2):
            start = time.perf_counter()
            with obs.capture(obs.PerfCounterSink()) as capture:
                with obs.span(f"fused[{name}]"):
                    fused = _fused(scheme, traces)
            fused_seconds = min(fused_seconds, time.perf_counter() - start)

        assert len(fused) == len(reference)
        for ours, oracle in zip(fused, reference):
            assert np.array_equal(ours, oracle)

        profile = capture.run_profile(f"bench_fused[{name}]")
        counters = profile.metrics.counters
        assert counters["batch.fused_flows"] >= len(reference)
        # O(one flow) working set: gathered columns + per-direction
        # float views never exceed ~6 float64 columns of any one flow.
        largest_flow = max(
            int(np.bincount(scheme.fused_plan(t).assignments).max(initial=0))
            for t in traces
        )
        high_water = profile.metrics.gauges["batch.bytes_materialized"]
        assert high_water <= largest_flow * 6 * 8
        largest_flow_bound = max(largest_flow_bound, high_water)
        if name == SCHEMES[0]:
            save_profile("fused", obs.profile_to_json(profile))

        total_legacy += legacy_seconds
        total_fused += fused_seconds
        rows.append(
            [
                name,
                len(reference),
                legacy_seconds,
                fused_seconds,
                legacy_seconds / fused_seconds,
            ]
        )

    # pytest-benchmark history: the fused leg of the first scheme.
    tracked = build_stack(SCHEMES[0], seed=7)
    benchmark.pedantic(lambda: _fused(tracked, traces), rounds=3, iterations=1)

    store.close()
    rows.append(
        ["total", packets, total_legacy, total_fused, total_legacy / total_fused]
    )
    save_table(
        "fused",
        ["scheme", "flows/packets", "materializing s", "fused s", "speedup"],
        rows,
        "Fused plan->featurize vs apply->featurize on a memmapped corpus",
        float_digits=3,
    )
    assert total_legacy / total_fused >= 1.4, (
        f"fused path must beat materializing: {total_legacy:.2f}s vs {total_fused:.2f}s"
    )
