"""W-sweep: OR stays flat while the attacker improves on everything else.

The paper's central time-scale claim (Sec. IV-C): between W = 5 s and
W = 60 s the attacker's accuracy on undefended traffic rises (83.2 ->
91.9 in the paper) while OR's stays put (43.7 -> 44.5).  This bench
traces the curve at four windows.
"""


def test_window_sweep(run_registered, save_table):
    result = run_registered("window_sweep", windows="5,15,30,60")
    save_table(
        "window_sweep",
        ["W (s)", "Original mean %", "OR mean %", "gap"],
        result.rows(),
        title="Eavesdropping-duration sweep (paper: OR flat, Original rising)",
    )

    # Longer windows help the attacker on undefended traffic...
    assert result.original[-1] >= result.original[0] - 2.0
    # ...while OR denies that gain: the defense's value GROWS with W.
    gap_short = result.original[0] - result.orthogonal[0]
    gap_long = result.original[-1] - result.orthogonal[-1]
    assert gap_long >= gap_short - 5.0
    # And OR's accuracy never approaches the undefended level.
    for original, orthogonal in zip(result.original, result.orthogonal):
        assert orthogonal < original - 15.0
