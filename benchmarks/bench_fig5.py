"""FIG5: OR schedules a BT flow by size modulo (paper Figure 5)."""

import numpy as np


def test_figure5(run_registered, save_table):
    series = run_registered("fig5", duration=300.0)
    rows = []
    for iface in sorted(series.packets_per_interface):
        grid, cdf = series.interface_cdfs[iface]
        spread = float(grid[np.searchsorted(cdf, 0.95)] - grid[np.searchsorted(cdf, 0.05)])
        rows.append([f"interface {iface + 1}", series.packets_per_interface[iface], spread])
    save_table(
        "fig5",
        ["flow", "packets", "5-95% size spread"],
        rows,
        title="Figure 5 — OR by i = L(s) mod 3 on BT (full-spectrum interfaces)",
    )

    # Fig. 5's property: every interface spans (almost) the whole size
    # axis, unlike Fig. 4's disjoint ranges.
    for iface in series.packets_per_interface:
        flow_hist_edges, flow_hist = series.interface_histograms[iface]
        occupied = flow_hist > 0
        assert flow_hist_edges[:-1][occupied].min() < 300
        assert flow_hist_edges[1:][occupied].max() > 1500
