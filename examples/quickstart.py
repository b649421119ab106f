"""Quickstart: defend one BitTorrent flow with Orthogonal Reshaping.

Generates synthetic traffic, trains the traffic-analysis attacker on
undefended captures of all seven activities, then shows what the
attacker sees with and without reshaping — the paper's headline result
in ~40 lines of API usage.

Run:  python examples/quickstart.py

(For the paper's full tables/figures, use the unified CLI instead:
`repro list`, then e.g. `repro run table2 --jobs 4` — see README.md.)
"""

from repro import (
    AppType,
    AttackPipeline,
    OrthogonalReshaper,
    ReshaperScheme,
    TrafficGenerator,
)


def main() -> None:
    generator = TrafficGenerator(seed=7)

    # 1. The attacker profiles the seven activities from undefended traces.
    print("Training the attacker (SVM + NN over per-window MAC features)...")
    training = {
        app.value: [generator.generate(app, duration=180.0, session=s) for s in range(3)]
        for app in AppType
    }
    attack = AttackPipeline(window=5.0, seed=7)
    attack.train(training)
    print(f"  winner: {attack.classifier_name}, "
          f"validation accuracy {attack.validation_accuracy:.1%}\n")

    # 2. The victim runs BitTorrent.
    victim = generator.generate(AppType.BITTORRENT, duration=180.0, session=99)

    # Undefended: one observable flow.
    undefended = attack.evaluate_flows({"bittorrent": [victim]})
    print(f"Undefended BT:   classified correctly "
          f"{undefended.accuracy_by_class['bittorrent']:.1f}% of windows")

    # 3. Defended: OR over three virtual MAC interfaces (paper defaults:
    #    size ranges (0,232], (232,1540], (1540,1576]).
    scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
    result = scheme.apply(victim)
    print(f"Reshaped over {len(result.flows)} virtual interfaces "
          f"(data overhead: {result.extra_bytes} bytes)")

    defended = attack.evaluate_flows({"bittorrent": result.observable_flows})
    print(f"Reshaped BT:     classified correctly "
          f"{defended.accuracy_by_class['bittorrent']:.1f}% of windows")

    for iface, flow in sorted(result.flows.items()):
        mean = flow.sizes.mean() if len(flow) else float("nan")
        print(f"  interface {iface}: {len(flow):5d} packets, "
              f"mean size {mean:7.1f} B")


if __name__ == "__main__":
    main()
