"""T4: false-positive rates, Original vs OR (paper Table IV)."""

#: Paper Table IV: (orig 5s, OR 5s, orig 60s, OR 60s).
PAPER = {
    "browsing": (2.73, 1.91, 1.51, 2.30),
    "chatting": (2.21, 21.01, 1.45, 19.73),
    "gaming": (3.29, 3.55, 1.86, 1.54),
    "downloading": (0.93, 34.77, 0.13, 35.47),
    "uploading": (0.02, 0.00, 0.00, 0.00),
    "video": (1.05, 0.44, 0.30, 0.00),
    "bittorrent": (9.32, 4.00, 4.25, 5.72),
    "Mean": (2.80, 9.38, 1.36, 9.25),
}


def test_table4(run_registered, save_table):
    result = run_registered("table4")
    rows = []
    for row in result.rows():
        app = row[0]
        paper = PAPER[app]
        merged = [app]
        for measured, published in zip(row[1:], paper):
            merged.extend([measured, published])
        rows.append(merged)
    headers = [
        "app",
        "orig 5s", "(paper)",
        "OR 5s", "(paper)",
        "orig 60s", "(paper)",
        "OR 60s", "(paper)",
    ]
    save_table("table4", headers, rows, title="Table IV — FP rates %")

    # Shape: OR inflates the mean FP rate at both windows, with the
    # look-alike classes (chatting / downloading) carrying most of it.
    for window in (5.0, 60.0):
        assert result.mean_fp[(window, "OR")] > result.mean_fp[(window, "Original")]
        fp = result.fp_rates[(window, "OR")]
        look_alike_fp = fp["chatting"] + fp["downloading"]
        others = [v for k, v in fp.items() if k not in ("chatting", "downloading")]
        assert look_alike_fp > max(others)
