"""FIG1: packet-size CDFs of the seven applications (paper Figure 1)."""

import numpy as np


def test_figure1(run_registered, save_table):
    series = run_registered("fig1", duration=300.0)
    # Summarize each CDF at the paper's landmark sizes.
    landmarks = [232, 525, 1050, 1540, 1576]
    rows = []
    for app, (grid, cdf) in series.items():
        row = [app]
        for size in landmarks:
            row.append(float(cdf[np.searchsorted(grid, size)]))
        rows.append(row)
    save_table(
        "fig1",
        ["app"] + [f"CDF@{size}" for size in landmarks],
        rows,
        title="Figure 1 — downlink packet-size CDF at landmark sizes",
    )

    # Shape assertions: chatting is small-dominated, downloading MTU-only.
    chat_cdf = series["chatting"][1]
    download_cdf = series["downloading"][1]
    grid = series["chatting"][0]
    assert chat_cdf[np.searchsorted(grid, 232)] > 0.6
    assert download_cdf[np.searchsorted(grid, 1540)] < 0.05
