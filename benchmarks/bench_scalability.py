"""D-SCALE: O(N) scheduling cost and scheduler micro-benchmarks (Sec. V-B)."""

import pytest

from repro.core.schedulers import (
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


def test_scalability_linear(run_registered, save_table):
    result = run_registered("scalability", durations="30,60,120,240")
    rows = [
        [n, seconds, rate]
        for n, seconds, rate in zip(
            result.packet_counts, result.seconds_per_run, result.packets_per_second
        )
    ]
    save_table(
        "scalability",
        ["packets", "seconds", "packets/s"],
        rows,
        title="Sec. V-B — OR scheduling cost across trace sizes (O(N))",
        float_digits=4,
    )
    rates = result.packets_per_second
    assert max(rates) < 15 * min(rates)


@pytest.fixture(scope="module")
def big_trace():
    return TrafficGenerator(seed=7).generate(AppType.DOWNLOADING, 120.0)


@pytest.mark.parametrize(
    "reshaper_factory",
    [
        lambda: OrthogonalReshaper.paper_default(),
        lambda: ModuloReshaper(3),
        lambda: RandomReshaper(3, seed=1),
        lambda: RoundRobinReshaper(3),
    ],
    ids=["or", "modulo", "random", "round-robin"],
)
def test_scheduler_throughput(benchmark, big_trace, reshaper_factory):
    """Batch scheduling throughput of each algorithm (packets/second)."""
    reshaper = reshaper_factory()

    def run():
        return reshaper.assign_columns(
            big_trace.times, big_trace.sizes, big_trace.directions
        )

    assignment = benchmark(run)
    assert len(assignment) == len(big_trace)
