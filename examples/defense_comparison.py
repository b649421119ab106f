"""Compare every defense on privacy AND efficiency (paper Tables II/VI).

For each application: classification accuracy of the best attacker and
byte overhead under — no defense, packet padding, traffic morphing,
random / round-robin / orthogonal reshaping.

Run:  python examples/defense_comparison.py
"""

from repro import (
    AppType,
    AttackPipeline,
    OrthogonalReshaper,
    PacketPadding,
    RandomReshaper,
    ReshaperScheme,
    RoundRobinReshaper,
    TrafficGenerator,
    TrafficMorphing,
)
from repro.defenses.overhead import overhead_percent
from repro.util.tables import format_table


def main() -> None:
    generator = TrafficGenerator(seed=21)
    training = {
        app.value: [generator.generate(app, 180.0, session=s) for s in range(3)]
        for app in AppType
    }
    attack = AttackPipeline(window=5.0, seed=21)
    attack.train(training)

    evaluation = {
        app: generator.generate(app, 150.0, session=77) for app in AppType
    }
    morph_pairs = TrafficMorphing.paper_morph_pairs()

    defenses = {
        "none": lambda trace: ([trace], 0.0),
        "padding": lambda trace: _single(PacketPadding().apply(trace)),
        "morphing": lambda trace: _morph(trace, evaluation, morph_pairs),
        "RA": lambda trace: _reshape(trace, RandomReshaper(3, seed=1)),
        "RR": lambda trace: _reshape(trace, RoundRobinReshaper(3)),
        "OR": lambda trace: _reshape(trace, OrthogonalReshaper.paper_default()),
    }

    rows = []
    for name, defend in defenses.items():
        flows_by_app, overheads = {}, []
        for app, trace in evaluation.items():
            flows, overhead = defend(trace)
            flows_by_app[app.value] = flows
            overheads.append(overhead)
        report = attack.evaluate_flows(flows_by_app)
        rows.append([name, report.mean_accuracy, sum(overheads) / len(overheads)])

    print(format_table(
        ["defense", "mean accuracy %", "mean overhead %"],
        rows,
        title="Privacy vs efficiency across defenses (W = 5 s)",
    ))
    print(
        "\nOR cuts the attacker's accuracy comparably to padding while"
        "\ncosting zero extra bytes (padding pays ~100% overhead; and against"
        "\nthe timing-only attacker of Table VI padding stops helping at all)."
    )


def _single(defended):
    return defended.observable_flows, overhead_percent(defended)


def _morph(trace, evaluation, morph_pairs):
    target_name = morph_pairs.get(trace.label)
    if target_name is None:
        return [trace], 0.0
    target = evaluation[AppType(target_name)]
    defended = TrafficMorphing(target_trace=target, seed=3).apply(trace)
    return _single(defended)


def _reshape(trace, reshaper):
    result = ReshaperScheme("reshaper", reshaper).apply(trace)
    return result.observable_flows, 0.0


if __name__ == "__main__":
    main()
