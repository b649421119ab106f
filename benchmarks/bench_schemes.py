"""SCHEMES: trace-transform throughput, single vs stacked compositions.

Every defense is a `Scheme` (schedulers through `ReshaperScheme`, the
byte-level baselines directly), so this bench tracks what the
abstraction costs: per-scheme
``apply`` throughput in packets/sec over a multi-hundred-thousand-packet
capture, for every registered single scheme and a ladder of stacked
compositions.  Two hard assertions ride along (no wall-clock
thresholds — single-core hosts vary):

* composed accounting is additive — the stack's ``extra_bytes`` /
  ``handshake_bytes`` equal the per-stage sums; and
* conservation — reshaping-only stacks emit exactly the input packets.

Results persist to ``results/schemes.txt`` + ``results/schemes.json``
via ``save_table`` so throughput is tracked release over release.
"""

import time

from repro.schemes import build_stack, scheme_names
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator

#: Stacked compositions, shallow to deep; RA appears twice in the last
#: one to exercise the order-salted stage seeding on the hot path.
STACKS = (
    "padding+or",
    "or+fh",
    "pseudonym+or",
    "padding+or+fh",
    "padding+ra+fh+ra",
)

DURATION = 600.0  # ~a quarter-million packets of downloading
REPEATS = 3


def test_scheme_apply_throughput(benchmark, save_table):
    trace = TrafficGenerator(seed=7).generate(AppType.DOWNLOADING, DURATION)
    compositions = tuple(scheme_names()) + STACKS
    rows = []
    for composition in compositions:
        scheme = build_stack(composition, seed=7)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            defended = scheme.apply(trace)
            best = min(best, time.perf_counter() - start)

        assert defended.extra_bytes == sum(
            stage.extra_bytes for stage in defended.stages
        )
        assert defended.handshake_bytes == sum(
            stage.handshake_bytes for stage in defended.stages
        )
        reshaping_only = all(stage.extra_bytes == 0 for stage in defended.stages)
        emitted = sum(len(flow) for flow in defended.observable_flows)
        if reshaping_only and "morphing" not in composition:
            assert emitted == len(trace)

        rows.append(
            [
                composition,
                len(defended.stages),
                len(defended.flows),
                defended.extra_bytes,
                defended.handshake_bytes,
                len(trace) / best,
            ]
        )

    save_table(
        "schemes",
        ["composition", "stages", "flows", "extra B", "handshake B", "packets/s"],
        rows,
        title=f"Scheme apply throughput — {len(trace)} packets, "
        f"best of {REPEATS} (single schemes, then stacks)",
        float_digits=0,
    )
