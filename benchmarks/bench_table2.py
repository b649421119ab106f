"""T2: classification accuracy at W = 5 s (paper Table II)."""

#: Paper Table II (W = 5 s).
PAPER = {
    "browsing": (37.77, 59.15, 58.74, 59.16, 1.90),
    "chatting": (77.93, 86.17, 85.82, 81.63, 84.21),
    "gaming": (88.18, 61.01, 60.24, 61.35, 26.61),
    "downloading": (99.88, 98.26, 95.59, 94.25, 99.95),
    "uploading": (95.92, 91.76, 89.30, 94.98, 90.78),
    "video": (93.32, 96.37, 86.01, 86.52, 0.00),
    "bittorrent": (89.68, 33.88, 57.69, 59.04, 2.35),
    "Mean": (83.24, 75.23, 76.20, 76.70, 43.69),
}

SCHEMES = ("Original", "FH", "RA", "RR", "OR")


def test_table2(run_registered, save_table):
    table = run_registered("table2")
    rows = []
    for row in table.rows():
        app = row[0]
        paper = PAPER[app]
        merged = [app]
        for measured, published in zip(row[1:], paper):
            merged.extend([measured, published])
        rows.append(merged)
    headers = ["app"]
    for scheme in SCHEMES:
        headers.extend([scheme, "(paper)"])
    save_table(
        "table2", headers, rows, title="Table II — classification accuracy %, W = 5 s"
    )

    # Shape assertions against the paper's qualitative result.
    assert table.mean("Original") > 75.0
    for scheme in ("FH", "RA", "RR"):
        assert table.mean(scheme) > table.mean("OR") + 15.0
    assert table.mean("OR") < 65.0
    # OR's per-app pattern: do/up/ch stay identifiable, bt/br collapse.
    assert table.accuracy("OR", "downloading") > 80.0
    assert table.accuracy("OR", "uploading") > 70.0
    assert table.accuracy("OR", "bittorrent") < 40.0
    assert table.accuracy("OR", "browsing") < 50.0
