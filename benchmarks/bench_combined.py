"""D-COMB: reshaping + morphing (paper Sec. V-C).

The paper: combining OR with per-interface morphing drives the mean
accuracy under 28% "while incurring much less overhead than
[full] traffic morphing" (whose Table VI mean is 39.44%).
"""


def test_combined_defense(run_registered, save_table):
    result = run_registered("combined")
    rows = [
        [app, result.or_accuracy[app], result.combined_accuracy[app]]
        for app in sorted(result.or_accuracy)
    ]
    rows.append(["Mean", result.or_mean, result.combined_mean])
    save_table(
        "combined",
        ["app", "OR acc %", "OR+morph acc %"],
        rows,
        title=(
            "Sec. V-C — combined defense "
            f"(overhead {result.combined_overhead_percent:.2f}%, "
            "paper: mean < 28% at much less than morphing's 39.4% overhead)"
        ),
    )

    assert result.combined_mean <= result.or_mean + 5.0
    # Much cheaper than full morphing (39.44% in Table VI).
    assert result.combined_overhead_percent < 39.44
