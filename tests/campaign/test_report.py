"""Aggregation artifacts: JSONL, baseline documents, markdown, gate."""

import pytest

from repro.campaign.baseline import (
    diff_campaign,
    load_baseline,
    write_baseline,
)
from repro.campaign.collector import (
    REPORT_SCHEMA,
    load_jsonl,
    metrics_by_cell,
    report_header,
    write_jsonl,
)
from repro.campaign.config import CampaignConfig
from repro.campaign.executor import CellResult
from repro.campaign.report import gate_failures, render_markdown


def _config():
    return CampaignConfig(
        name="demo",
        runner="episode",
        matrix={"hybrid": [False, True]},
        seeds=[7],
        source="demo.yaml",
        axes={"locality": "higher"},
    )


def _result(cell_id, status="ok", **kwargs):
    base = dict(
        id=cell_id, runner="episode", seed=7, status=status,
        metrics={"x_per_s": 100.0, "locality": 0.8},
        fingerprint="0x00c0ffee",
    )
    base.update(kwargs)
    return CellResult(**base)


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "report.jsonl")
    results = [_result("hybrid=off,seed=7"), _result("hybrid=on,seed=7")]
    header = write_jsonl(path, _config(), results)
    assert header["schema"] == REPORT_SCHEMA
    assert header["cells"] == 2
    assert header["statuses"] == {"ok": 2}
    loaded_header, loaded = load_jsonl(path)
    assert loaded_header == header
    assert loaded == results


def test_load_jsonl_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "something/else"}\n')
    with pytest.raises(ValueError, match="unsupported report schema"):
        load_jsonl(str(path))


def test_metrics_by_cell_omits_cells_without_metrics():
    results = [
        _result("hybrid=off,seed=7"),
        _result("hybrid=on,seed=7", status="timeout", metrics={}),
    ]
    assert list(metrics_by_cell(results)) == ["hybrid=off,seed=7"]


def test_baseline_round_trip_and_diff(tmp_path):
    path = str(tmp_path / "base.json")
    write_baseline(
        path, "demo",
        cells={
            "hybrid=off,seed=7": {"x_per_s": 100.0, "locality": 0.8},
            "hybrid=on,seed=7": {"x_per_s": 100.0},
        },
        fingerprints={"hybrid=off,seed=7": "0x00c0ffee"},
    )
    doc = load_baseline(path)
    assert doc["campaign"] == "demo"
    assert doc["fingerprints"] == {"hybrid=off,seed=7": "0x00c0ffee"}

    current = {
        # x_per_s fine; locality regressed beyond 20% under axes map
        "hybrid=off,seed=7": {"x_per_s": 95.0, "locality": 0.5},
        # a cell the baseline has never seen: informational
        "hybrid=maybe,seed=7": {"x_per_s": 1.0},
        # hybrid=on missing entirely -> gate failure
    }
    diff = diff_campaign(doc, current, extra_axes={"locality": "higher"})
    assert list(diff["regressions"]) == ["hybrid=off,seed=7"]
    assert "locality" in diff["regressions"]["hybrid=off,seed=7"][0]
    assert diff["missing_cells"] == ["hybrid=on,seed=7"]
    assert diff["new_cells"] == ["hybrid=maybe,seed=7"]
    assert diff["fingerprint_drift"] == {}  # no fingerprints passed in
    # without the axes map, the unsuffixed metric is informational
    assert diff_campaign(doc, current)["regressions"] == {}
    # fingerprints are compared exactly, for cells the baseline records
    same = {"hybrid=off,seed=7": "0x00c0ffee", "hybrid=maybe,seed=7": "0x1"}
    assert diff_campaign(doc, current, cell_fingerprints=same)[
        "fingerprint_drift"
    ] == {}
    drifted = diff_campaign(
        doc, current, cell_fingerprints={"hybrid=off,seed=7": "0x0badf00d"}
    )
    assert drifted["fingerprint_drift"] == {
        "hybrid=off,seed=7": ["0x00c0ffee", "0x0badf00d"]
    }


def test_load_baseline_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nope"}')
    with pytest.raises(ValueError, match="unsupported baseline schema"):
        load_baseline(str(path))


def test_markdown_report_lists_cells_failures_and_diff():
    results = [
        _result("hybrid=off,seed=7"),
        _result(
            "hybrid=on,seed=7",
            status="violation",
            violations=[{"invariant": "conservation", "detail": "lost key"}],
            bundle_path="/tmp/bundle.json",
            metrics={},
        ),
    ]
    header = report_header(_config(), results)
    diff = {
        "regressions": {"hybrid=off,seed=7": ["x_per_s: 1 is 0.01x ..."]},
        "missing_cells": ["gone,seed=7"],
        "new_cells": ["fresh,seed=7"],
        "fingerprint_drift": {"hybrid=off,seed=7": ["0xaa", "0xbb"]},
    }
    text = render_markdown(
        header, results, diff=diff, baseline_path="baselines/demo.json"
    )
    assert "# Campaign report: demo" in text
    assert "## Failed cells" in text
    assert "conservation" in text
    assert "repro.testing.fuzz --replay /tmp/bundle.json" in text
    assert "| cell | status | fingerprint" in text
    assert "`0x00c0ffee`" in text
    assert "### Regressions" in text
    assert "gone,seed=7" in text and "fresh,seed=7" in text
    assert "baseline `0xaa`, run `0xbb`" in text


def test_markdown_without_baseline_points_at_record_flag():
    results = [_result("hybrid=off,seed=7")]
    text = render_markdown(report_header(_config(), results), results)
    assert "--record-baseline" in text


def test_gate_failures_cover_cells_regressions_and_missing():
    results = [
        _result("a,seed=7"),
        _result("b,seed=7", status="crash", metrics={}),
    ]
    diff = {
        "regressions": {"a,seed=7": ["x_per_s: down"]},
        "missing_cells": ["c,seed=7"],
        "new_cells": ["d,seed=7"],  # informational: must NOT gate
        "fingerprint_drift": {"a,seed=7": ["0xaa", "0xbb"]},
    }
    messages = gate_failures(results, diff)
    assert len(messages) == 4
    assert any("b,seed=7: crash" in m for m in messages)
    assert any("regression in a,seed=7" in m for m in messages)
    assert any("baseline cell missing" in m for m in messages)
    assert any("fingerprint of a,seed=7" in m for m in messages)
    assert not any("d,seed=7" in m for m in messages)
    assert gate_failures([_result("a,seed=7")], None) == []
