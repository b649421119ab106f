"""T1: per-interface features under OR (paper Table I)."""

import math


#: Paper Table I, "Original" column: (mean size B, mean interarrival s).
PAPER_ORIGINAL = {
    "browsing": (1013.2, 0.0284),
    "chatting": (269.1, 0.9901),
    "gaming": (459.5, 0.3084),
    "downloading": (1575.3, 0.0023),
    "uploading": (132.8, 0.0301),
    "video": (1547.6, 0.0119),
    "bittorrent": (962.04, 0.0247),
}


def test_table1(run_registered, save_table):
    rows_data = run_registered("table1")
    rows = []
    for row in rows_data:
        paper_size, paper_iat = PAPER_ORIGINAL[row.app]
        rows.append(
            [
                row.app,
                row.original_mean_size,
                paper_size,
                row.original_interarrival,
                paper_iat,
                row.interface_mean_sizes[0],
                row.interface_mean_sizes[1],
                row.interface_mean_sizes[2],
            ]
        )
    save_table(
        "table1",
        ["app", "size", "paper", "iat", "paper", "if1 size", "if2 size", "if3 size"],
        rows,
        title="Table I — features on virtual interfaces (AP -> user), OR I=3",
        float_digits=3,
    )

    for row in rows_data:
        # Interface size bands match the OR ranges whenever populated.
        if not math.isnan(row.interface_mean_sizes[0]):
            assert row.interface_mean_sizes[0] <= 232
        if not math.isnan(row.interface_mean_sizes[2]):
            assert row.interface_mean_sizes[2] > 1540
        # The evaluation session is one jittered capture (real sessions
        # vary the same way); the strict calibration check against Table I
        # lives in tests/unit/traffic/test_calibration.py on the
        # jitter-free models.
        paper_size, _ = PAPER_ORIGINAL[row.app]
        assert abs(row.original_mean_size - paper_size) / paper_size < 0.35
