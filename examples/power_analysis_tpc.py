"""Power analysis and the TPC counter-measure (paper Sec. V-A).

Reshaping hides traffic features, but the RSSI fingerprint can still
link a card's virtual interfaces together.  This example runs the RSSI
linking adversary against three reshaping stations, with and without
per-packet transmission power control.

Run:  python examples/power_analysis_tpc.py
"""

from repro.experiments import ScenarioParams, run_experiment
from repro.util.tables import format_table


def main() -> None:
    print("Simulating 3 stations x 3 virtual interfaces, RSSI-linking adversary...\n")
    result = run_experiment(
        "tpc", ScenarioParams(seed=3), {"duration": 25.0, "stations": 3}
    )
    print(format_table(
        ["configuration", "pairwise linking accuracy"],
        [
            ["fixed TX power", f"{result.accuracy_without_tpc:.2f}"],
            ["per-packet TPC", f"{result.accuracy_with_tpc:.2f}"],
        ],
        title=f"RSSI linking over {result.flows_observed} observable flows",
    ))
    print(
        "\nWithout TPC the adversary clusters virtual interfaces by signal\n"
        "strength and undoes the reshaping partition; per-packet TPC gives\n"
        "each virtual identity its own power level and defeats the linker\n"
        "(paper Sec. V-A)."
    )


if __name__ == "__main__":
    main()
