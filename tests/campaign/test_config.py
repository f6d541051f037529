"""Campaign file schema: loading and strict validation."""

import json

import pytest

from repro.campaign.config import (
    CampaignError,
    load_campaign,
    validate,
)

GOOD = {
    "campaign": "demo",
    "runner": "episode",
    "matrix": {"hybrid": [False, True], "faults": [False, True]},
    "defaults": {"parallelism": 3},
    "seeds": [7, 8],
    "timeout_s": 30,
    "baseline": "baselines/demo.json",
    "axes": {"locality": "higher"},
}


def _bad(**overrides):
    data = {**{k: v for k, v in GOOD.items()}, **overrides}
    for key, value in list(data.items()):
        if value is _DEL:
            del data[key]
    return data


_DEL = object()


def test_good_campaign_validates():
    config = validate(GOOD, "demo.yaml")
    assert config.name == "demo"
    assert config.runner == "episode"
    assert config.cells_per_seed == 4
    assert config.seeds == [7, 8]
    assert config.tolerance == 0.20
    assert config.axes == {"locality": "higher"}
    counted = {"locality": "higher", "measured_ipc_bytes": "exact"}
    assert validate(_bad(axes=counted), "demo.yaml").axes == counted


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"campaign": _DEL}, "missing required key 'campaign'"),
        ({"runner": _DEL}, "missing required key 'runner'"),
        ({"matrix": _DEL}, "missing required key 'matrix'"),
        ({"campaign": "bad name"}, "slug"),
        ({"runner": "teleport"}, "unknown runner"),
        ({"matrix": {}}, "non-empty mapping"),
        ({"matrix": {"hybrid": []}}, "at least one value"),
        ({"matrix": {"hybrid": [[1, 2]]}}, "non-scalar"),
        ({"matrix": {"hybrid": [True, True]}}, "repeats a value"),
        ({"matrix": {"bad axis": [1]}}, "not an identifier"),
        ({"defaults": {"hybrid": True}}, "both 'defaults' and 'matrix'"),
        ({"seeds": []}, "non-empty list of ints"),
        ({"seeds": [1.5]}, "non-empty list of ints"),
        ({"seeds": [True]}, "non-empty list of ints"),
        ({"seeds": [3, 3]}, "repeats a seed"),
        ({"timeout_s": 0}, "'timeout_s' must be > 0"),
        ({"workers": -1}, "'workers' must be an int >= 0"),
        ({"tolerance": -0.1}, "'tolerance' must be >= 0"),
        ({"axes": {"locality": "sideways"}}, "'higher' or 'lower'"),
        ({"surprise": 1}, "unknown key"),
    ],
)
def test_bad_campaigns_fail_with_named_key(overrides, fragment):
    with pytest.raises(CampaignError) as excinfo:
        validate(_bad(**overrides), "demo.yaml")
    assert fragment in str(excinfo.value)


def test_non_mapping_campaign_fails():
    with pytest.raises(CampaignError):
        validate(["not", "a", "mapping"], "demo.yaml")


def test_load_json_campaign(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(GOOD))
    config = load_campaign(str(path))
    assert config.name == "demo"
    assert config.source == str(path)
    # baseline resolves relative to the campaign file
    assert config.baseline_path() == str(tmp_path / "baselines" / "demo.json")


def test_load_yaml_campaign(tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "demo.yaml"
    path.write_text(yaml.safe_dump(GOOD))
    config = load_campaign(str(path))
    assert config.name == "demo"
    assert config.matrix == GOOD["matrix"]


def test_load_missing_file_is_a_campaign_error(tmp_path):
    with pytest.raises(CampaignError, match="no such campaign"):
        load_campaign(str(tmp_path / "absent.yaml"))


def test_committed_campaigns_validate():
    """Every campaign shipped under campaigns/ must load cleanly."""
    import glob
    import os

    repo = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    paths = sorted(glob.glob(os.path.join(repo, "campaigns", "*.yaml")))
    assert paths, "no committed campaigns found"
    pytest.importorskip("yaml")
    for path in paths:
        config = load_campaign(path)
        # Figure 10 is a single plot: its campaign is one cell
        assert config.cells_per_seed >= 1, path
