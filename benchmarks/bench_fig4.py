"""FIG4: OR schedules a BT flow by size ranges (paper Figure 4)."""

import numpy as np


def test_figure4(run_registered, save_table):
    series = run_registered("fig4", duration=300.0)
    rows = []
    for iface, count in sorted(series.packets_per_interface.items()):
        flow_cdf_grid, flow_cdf = series.interface_cdfs[iface]
        median = float(flow_cdf_grid[np.searchsorted(flow_cdf, 0.5)])
        rows.append([f"interface {iface + 1}", count, median])
    save_table(
        "fig4",
        ["flow", "packets", "median size"],
        rows,
        title="Figure 4 — OR over ranges (0,525], (525,1050], (1050,1576] on BT",
    )

    # Each interface's sizes live inside its range (Fig. 4 b-d).
    histograms = series.interface_histograms
    edges0, counts0 = histograms[0]
    assert counts0[edges0[:-1] >= 525].sum() == 0
    edges2, counts2 = histograms[2]
    assert counts2[edges2[1:] <= 1050].sum() == 0
