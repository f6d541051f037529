"""repro.campaign.baseline.compare_metrics: axis directions, thresholds,
edge cases.

The comparator gates every campaign in CI, so its semantics are pinned
here: ``*_per_s`` is higher-is-better, ``*_bytes_per_key`` is
lower-is-better, movement of *exactly* the tolerance is not a
regression, a directed baseline metric missing from the current run
is, and brand-new axes never fail the gate that introduces them.
"""

from repro.campaign.baseline import compare_metrics


# ----------------------------------------------------------------------
# axis directions
# ----------------------------------------------------------------------


def test_rate_axis_is_higher_is_better():
    base = {"fig13_quick_tuples_per_s": 50_000.0}
    # 30% faster: never a regression
    assert compare_metrics(base, {"fig13_quick_tuples_per_s": 65_000.0}) == []
    # 30% slower: regression
    messages = compare_metrics(base, {"fig13_quick_tuples_per_s": 35_000.0})
    assert len(messages) == 1
    assert "fig13_quick_tuples_per_s" in messages[0]


def test_bytes_axis_is_lower_is_better():
    base = {"scale_1m_bytes_per_key": 20.0}
    # shrinking is an improvement
    assert compare_metrics(base, {"scale_1m_bytes_per_key": 14.0}) == []
    # growing 30% is a regression
    messages = compare_metrics(base, {"scale_1m_bytes_per_key": 26.0})
    assert len(messages) == 1
    assert "scale_1m_bytes_per_key" in messages[0]


def test_undirected_metrics_are_informational():
    base = {"rounds": 6.0, "overhead_ratio": 1.02}
    now = {"rounds": 1.0, "overhead_ratio": 9.9}
    assert compare_metrics(base, now) == []


def test_extra_axes_direct_unsuffixed_metrics():
    base = {"locality": 0.70, "load_balance": 1.02}
    now = {"locality": 0.30, "load_balance": 1.80}
    axes = {"locality": "higher", "load_balance": "lower"}
    assert compare_metrics(base, now) == []  # no directions, no gate
    messages = compare_metrics(base, now, extra_axes=axes)
    assert len(messages) == 2


def test_exact_axis_fails_on_any_difference_in_either_direction():
    """A counted number (measured IPC bytes) is not gated at a
    tolerance: it repeats per seed or something changed."""
    axes = {"measured_ipc_bytes": "exact"}
    base = {"measured_ipc_bytes": 51482.0, "idle_bytes": 0.0}
    assert compare_metrics(base, dict(base), 0.5, axes) == []
    for now in (51481.0, 51483.0, 0.0):
        messages = compare_metrics(
            base, {"measured_ipc_bytes": now}, 0.5, axes
        )
        assert len(messages) == 1 and "exact" in messages[0]
    # a zero baseline is compared too (directed axes skip it)
    zero = {"idle_bytes": "exact"}
    assert compare_metrics(base, {"idle_bytes": 0.0}, 0.5, zero) == []
    assert len(compare_metrics(base, {"idle_bytes": 8.0}, 0.5, zero)) == 1
    assert compare_metrics(base, {}, 0.5, axes) == [
        "measured_ipc_bytes: missing from current run"
    ]

# ----------------------------------------------------------------------
# threshold edge cases
# ----------------------------------------------------------------------


def test_exactly_20_percent_drop_is_not_a_regression():
    base = {"x_per_s": 100_000.0}
    assert compare_metrics(base, {"x_per_s": 80_000.0}) == []
    # one part in a million beyond the boundary trips the gate
    assert compare_metrics(base, {"x_per_s": 79_999.9}) != []


def test_exactly_20_percent_growth_is_not_a_regression_for_bytes():
    base = {"x_bytes_per_key": 100.0}
    assert compare_metrics(base, {"x_bytes_per_key": 120.0}) == []
    assert compare_metrics(base, {"x_bytes_per_key": 120.1}) != []


def test_custom_tolerance():
    base = {"x_per_s": 100.0}
    assert compare_metrics(base, {"x_per_s": 91.0}, tolerance=0.10) == []
    assert compare_metrics(base, {"x_per_s": 89.0}, tolerance=0.10) != []


def test_zero_baseline_never_divides():
    base = {"x_per_s": 0.0, "y_bytes_per_key": 0.0}
    now = {"x_per_s": 0.0, "y_bytes_per_key": 5.0}
    assert compare_metrics(base, now) == []


# ----------------------------------------------------------------------
# missing / new metrics
# ----------------------------------------------------------------------


def test_directed_baseline_metric_missing_from_current_run_fails():
    base = {"x_per_s": 100.0, "y_bytes_per_key": 10.0}
    messages = compare_metrics(base, {})
    assert sorted(m.split(":")[0] for m in messages) == [
        "x_per_s",
        "y_bytes_per_key",
    ]
    assert all("missing from current run" in m for m in messages)


def test_new_axis_in_current_run_is_never_gated():
    base = {"x_per_s": 100.0}
    now = {"x_per_s": 100.0, "brand_new_per_s": 1.0, "n_bytes_per_key": 9e9}
    assert compare_metrics(base, now) == []


def test_undirected_baseline_metric_missing_is_ignored():
    assert compare_metrics({"rounds": 6.0}, {}) == []
