"""T6: efficiency comparison — padding / morphing vs reshaping (Table VI)."""

#: Paper Table VI: (accuracy %, padding overhead %, morphing overhead %).
PAPER = {
    "browsing": (31.37, 55.55, 28.67),
    "chatting": (72.15, 485.74, 54.62),
    "gaming": (71.68, 242.96, 128.42),
    "downloading": (100.0, 0.04, 0.0),
    "uploading": (95.92, 0.0, 0.0),
    "video": (91.81, 1.84, 1.83),
    "bittorrent": (37.54, 63.82, 62.52),
    "Mean": (71.18, 121.42, 39.44),
}


def test_table6(run_registered, save_table):
    result = run_registered("table6")
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
        "timing acc", "(paper)",
        "pad ovh%", "(paper)",
        "morph ovh%", "(paper)",
    ]
    save_table(
        "table6", headers, rows, title="Table VI — efficiency comparison (W = 5 s)"
    )

    # Shape: the timing attack still succeeds against padding/morphing,
    # padding is far costlier than morphing, reshaping costs 0 (by
    # construction, asserted in unit tests).
    assert result.mean_accuracy > 45.0
    assert result.mean_padding_overhead > result.mean_morphing_overhead
    assert result.padding_overhead["chatting"] > 300.0
    assert result.padding_overhead["downloading"] < 5.0
    assert result.morphing_overhead["video"] < 15.0
