"""D-TPC: RSSI power analysis and the TPC counter-measure (Sec. V-A)."""


def test_tpc_linking(run_registered, save_table):
    result = run_registered("tpc", duration=25.0, stations=3)
    save_table(
        "tpc_linking",
        ["setting", "pairwise linking accuracy"],
        [
            ["fixed TX power", result.accuracy_without_tpc],
            ["per-packet TPC", result.accuracy_with_tpc],
        ],
        title=(
            "Sec. V-A — RSSI linking of virtual interfaces "
            f"({result.flows_observed} observable flows)"
        ),
    )

    # Without TPC the RSSI fingerprint links the virtual interfaces of a
    # card; per-packet TPC degrades the linker.
    assert result.accuracy_without_tpc > 0.8
    assert result.accuracy_with_tpc < result.accuracy_without_tpc
