"""T3: classification accuracy at W = 60 s (paper Table III)."""

#: Paper Table III (W = 60 s).
PAPER = {
    "browsing": (72.94, 72.59, 76.72, 77.90, 0.57),
    "chatting": (85.29, 81.09, 67.67, 64.89, 93.86),
    "gaming": (93.74, 79.71, 81.36, 81.67, 23.64),
    "downloading": (100.0, 100.0, 100.0, 100.0, 99.96),
    "uploading": (95.92, 91.76, 89.30, 94.98, 90.78),
    "video": (100.0, 100.0, 100.0, 100.0, 0.00),
    "bittorrent": (95.14, 93.63, 96.44, 97.02, 2.61),
    "Mean": (91.86, 88.40, 87.36, 88.07, 44.49),
}

SCHEMES = ("Original", "FH", "RA", "RR", "OR")


def test_table3(run_registered, save_table):
    table = run_registered("table3")
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
        "table3", headers, rows, title="Table III — classification accuracy %, W = 60 s"
    )

    # The paper's headline: extending W helps the attacker against the
    # naive schemes but NOT against OR (43.69 -> 44.49).
    assert table.mean("Original") > 80.0
    assert table.mean("OR") < 60.0
    for scheme in ("FH", "RA", "RR"):
        assert table.mean(scheme) > table.mean("OR") + 20.0
    assert table.accuracy("OR", "downloading") > 80.0
    assert table.accuracy("OR", "bittorrent") < 40.0
