"""T5: OR accuracy versus interface count I (paper Table V)."""

#: Paper Table V (OR accuracy %, W = 5 s).
PAPER = {
    "browsing": (2.82, 1.90, 1.52),
    "chatting": (91.63, 84.21, 90.35),
    "gaming": (56.83, 26.61, 17.24),
    "downloading": (99.92, 99.95, 99.37),
    "uploading": (95.59, 90.78, 90.53),
    "video": (0.00, 0.00, 0.00),
    "bittorrent": (2.47, 2.35, 0.49),
    "Mean": (49.89, 43.69, 42.79),
}


def test_table5(run_registered, save_table):
    result = run_registered("table5")
    rows = []
    for row in result.rows():
        app = row[0]
        paper = PAPER[app]
        merged = [app]
        for measured, published in zip(row[1:], paper):
            merged.extend([measured, published])
        rows.append(merged)
    headers = ["app", "I=2", "(paper)", "I=3", "(paper)", "I=5", "(paper)"]
    save_table(
        "table5", headers, rows, title="Table V — OR accuracy % by interface count"
    )

    # Sec. IV-C: accuracy decreases with I with diminishing returns; the
    # I=2 -> I=3 step dominates the I=3 -> I=5 step.
    assert result.means[3] <= result.means[2] + 3.0
    assert result.means[5] <= result.means[3] + 3.0
    drop_23 = result.means[2] - result.means[3]
    drop_35 = result.means[3] - result.means[5]
    assert drop_35 <= drop_23 + 5.0
    # do/up stay identifiable at every I.
    for count in (2, 3, 5):
        assert result.accuracies[count]["downloading"] > 75.0
