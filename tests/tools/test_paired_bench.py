"""tools/paired_bench.py: the alternating-pairs protocol and its
verdict, on an injected runner (no benchmark runs in tier-1)."""

import os
import sys

_TOOLS = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ),
    "tools",
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import paired_bench as bench  # noqa: E402

METRICS = bench.load_metrics()
#: what an unremarkable parent run reads
BASE = {
    "setup_s": 1.0,
    "tuples_per_s": 100_000.0,
    "cpu_us_per_tuple": 10.0,
    "peak_rss_mb": 60.0,
    "locality": 0.4,
    "load_balance": 1.2,
}


class FakeRunner:
    """Returns canned metrics per side; ``change`` maps a metric to a
    function of (pair index, parent value)."""

    def __init__(self, change, failed=0):
        self.change = change
        self.failed = failed
        self.calls = []

    def __call__(self, root, workload, seed, seconds):
        self.calls.append((root, workload, seed, seconds))
        index = seed - 11
        # the parent wobbles +-1 % from pair to pair
        values = {
            name: value * (1.0 + 0.01 * ((index % 3) - 1))
            for name, value in BASE.items()
        }
        if root == "CHANGE":
            for name, fn in self.change.items():
                values[name] = fn(index, values[name])
        failed = self.failed if root == "CHANGE" else 0
        return {
            "correct": not failed,
            "attempted": 1000,
            "failed": failed,
            "metrics": values,
        }


def _verdict(change, claimed="tuples_per_s", pairs=10, failed=0):
    runner = FakeRunner(change, failed)
    runs = bench.run_pairs(
        runner, {"parent": "PARENT", "change": "CHANGE"}, "w",
        pairs, 20.0, 11, log=lambda line: None,
    )
    return runner, bench.verdict(METRICS, claimed, runs)


def test_benchmark_json_names_directions_and_bounds():
    assert set(METRICS) == set(BASE)
    assert METRICS["tuples_per_s"]["better"] == "higher"
    assert METRICS["cpu_us_per_tuple"]["better"] == "lower"
    assert METRICS["peak_rss_mb"]["bound"] == 0.1


def test_sides_alternate_and_a_pair_shares_its_seed():
    runner, _ = _verdict({}, pairs=4)
    assert [(root, seed) for root, _, seed, _ in runner.calls] == [
        ("PARENT", 11), ("CHANGE", 11),
        ("CHANGE", 12), ("PARENT", 12),
        ("PARENT", 13), ("CHANGE", 13),
        ("CHANGE", 14), ("PARENT", 14),
    ]
    assert {(w, s) for _, w, _, s in runner.calls} == {("w", 20.0)}


def test_clean_win_meets_the_claim():
    _, result = _verdict({
        "tuples_per_s": lambda i, v: v * 1.25,
        "cpu_us_per_tuple": lambda i, v: v / 1.25,
    })
    row = result["rows"]["tuples_per_s"]
    assert (row["wins"], row["losses"], row["ties"]) == (10, 0, 0)
    assert row["claim"] == "met" and abs(row["ratio"] - 1.25) < 1e-9
    assert result["rows"]["cpu_us_per_tuple"]["guard"] == "ok"
    assert result["regressed"] == [] and result["ok"]
    text = bench.render("w", "tuples_per_s", result)
    assert "claim met" in text and text.endswith("verdict: PASS")


def test_a_tie_is_not_a_gain():
    _, result = _verdict({})
    row = result["rows"]["tuples_per_s"]
    assert (row["wins"], row["losses"], row["ties"]) == (0, 0, 10)
    assert row["claim"] == "not met" and row["guard"] == "ok"
    assert not result["ok"]


def test_eight_of_ten_is_not_enough():
    _, result = _verdict({
        "tuples_per_s": lambda i, v: v * (0.99 if i in (3, 7) else 1.25),
    })
    row = result["rows"]["tuples_per_s"]
    assert (row["wins"], row["losses"]) == (8, 2)
    assert row["claim"] == "not met"
    assert not result["ok"]


def test_a_gain_inside_the_parents_spread_is_not_one():
    # wins every pair, by less than the parent's interquartile range
    _, result = _verdict({"tuples_per_s": lambda i, v: v * 1.002})
    row = result["rows"]["tuples_per_s"]
    assert row["wins"] == 10 and row["claim"] == "not met"


def test_lower_is_better_metrics_win_downwards():
    _, result = _verdict(
        {"cpu_us_per_tuple": lambda i, v: v * 0.8}, claimed="cpu_us_per_tuple"
    )
    assert result["rows"]["cpu_us_per_tuple"]["claim"] == "met"
    assert result["ok"]


def test_regression_on_another_metric_fails_the_run():
    _, result = _verdict({
        "tuples_per_s": lambda i, v: v * 1.25,
        "peak_rss_mb": lambda i, v: v * 1.15,  # bound: 10 %
    })
    assert result["rows"]["tuples_per_s"]["claim"] == "met"
    assert result["rows"]["peak_rss_mb"]["guard"] == "regressed"
    assert result["regressed"] == ["peak_rss_mb"]
    assert not result["ok"]
    assert "regressed" in bench.render("w", "tuples_per_s", result)


def test_spread_wider_than_the_bound_is_unresolved():
    # the parent itself swings by more than locality's 5 % bound
    runner = FakeRunner({})
    runs = bench.run_pairs(
        runner, {"parent": "PARENT", "change": "CHANGE"}, "w",
        10, 20.0, 11, log=lambda line: None,
    )
    for index, pair in enumerate(runs):
        for side in bench.SIDES:
            pair[side]["metrics"]["locality"] = 0.4 + 0.05 * (index % 3)
    result = bench.verdict(METRICS, "tuples_per_s", runs)
    assert result["rows"]["locality"]["guard"] == "unresolved"
    assert result["regressed"] == []


def test_a_larger_share_of_failures_fails_the_run():
    _, result = _verdict({"tuples_per_s": lambda i, v: v * 1.25}, failed=3)
    assert result["failed"] == {"parent": (0, 10_000), "change": (30, 10_000)}
    assert not result["ok"]


def test_a_run_without_a_claim_passes_when_nothing_regressed():
    """No ``--metric``: a tie everywhere passes, since no metric got
    worse and no larger share failed."""
    _, result = _verdict({}, claimed=None)
    assert result["regressed"] == [] and result["ok"]
    assert all(row["guard"] == "ok" for row in result["rows"].values())
    text = bench.render("w", None, result)
    assert "claim" not in text.replace("no claim", "")
    assert text.endswith(
        "verdict: PASS (no claim: regressions and failures only)"
    )


def test_a_run_without_a_claim_fails_on_a_regression_or_failures():
    _, result = _verdict({"peak_rss_mb": lambda i, v: v * 1.15}, claimed=None)
    assert result["regressed"] == ["peak_rss_mb"] and not result["ok"]
    assert bench.render("w", None, result).startswith("w:")
    _, result = _verdict({}, claimed=None, failed=3)
    assert result["regressed"] == [] and not result["ok"]


def test_the_metric_is_optional_on_the_command_line(monkeypatch):
    """``main`` without ``--metric`` runs the pairs and exits on the
    no-claim verdict: 0 when nothing regressed, 1 when one did."""
    halved = {"tuples_per_s": lambda i, v: v * 0.5}
    for change, status in (({}, 0), (halved, 1)):
        runner = FakeRunner(change)
        monkeypatch.setattr(
            bench, "run_benchmark",
            lambda root, *args: runner(
                "PARENT" if root != bench.REPO else "CHANGE", *args
            ),
        )
        monkeypatch.setattr(bench, "checkout", lambda parent, scratch: parent)
        assert bench.main(
            ["--parent", "PARENT", "--workload", "w", "--pairs", "4"]
        ) == status
