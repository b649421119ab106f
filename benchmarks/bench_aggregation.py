"""Ablation: the flow-aggregation counter-attack (motivates Sec. V-A TPC).

If the adversary can link a card's virtual interfaces (perfect linking
here — the oracle upper bound) and merge their flows, the merged flow is
the original traffic and classification accuracy snaps back.  Reshaping
therefore only holds as long as the interfaces stay unlinkable — which
is exactly what the TPC counter-measure protects.
"""

from repro.analysis.aggregation import AggregationAttack
from repro.core.base import ReshaperScheme
from repro.core.schedulers import OrthogonalReshaper


def test_aggregation_recovers_accuracy(benchmark, scenario, runner, save_table):
    pipeline = runner.pipeline(5.0)
    scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
    flows_by_label = {}
    for app, traces in scenario.evaluation_traces().items():
        flows = []
        for trace in traces:
            flows.extend(scheme.apply(trace).observable_flows)
        flows_by_label[app.value] = flows

    attack = AggregationAttack(pipeline, linker=None)
    outcome = benchmark.pedantic(
        attack.evaluate, args=(flows_by_label,), rounds=1, iterations=1
    )

    rows = [
        ["per-interface (unlinkable)", outcome.split_report.mean_accuracy],
        ["merged (oracle linking)", outcome.merged_report.mean_accuracy],
        ["recovered", outcome.accuracy_recovered],
    ]
    save_table(
        "aggregation",
        ["adversary view", "mean accuracy %"],
        rows,
        title="Ablation — aggregation counter-attack against OR (W = 5 s)",
    )

    assert outcome.accuracy_recovered > 15.0
    assert outcome.merged_report.mean_accuracy > 75.0
