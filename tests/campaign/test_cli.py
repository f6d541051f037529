"""``python -m repro.campaign run`` against a committed baseline only.

Campaign reports are run output and are not committed, so on a fresh
checkout the baseline is the one record of what each cell must
reproduce: a full run fails its gate when a cell's fingerprint differs
from the baseline's, and ``--cell`` verifies against the baseline when
no ``report.jsonl`` is there.
"""

import json

from repro.campaign.__main__ import main

CELL = "hybrid=off,seed=7"


def test_baseline_fingerprint_gates_run_and_single_cell(tmp_path, capsys):
    campaign = tmp_path / "tiny.json"
    campaign.write_text(
        json.dumps(
            {
                "campaign": "tiny",
                "runner": "episode",
                "matrix": {"hybrid": [False]},
                "defaults": {
                    "parallelism": 2,
                    "keys": 8,
                    "tuples_per_instance": 300,
                },
                "seeds": [7],
                "workers": 1,
                "baseline": "tiny-baseline.json",
            }
        )
    )
    baseline = tmp_path / "tiny-baseline.json"
    run = ["run", str(campaign)]

    recorded = run + ["--out", str(tmp_path / "first"), "--record-baseline"]
    assert main(recorded) == 0
    assert CELL in json.loads(baseline.read_text())["fingerprints"]

    # a checkout that has the baseline and no report: --cell reproduces
    fresh = run + ["--cell", CELL, "--out", str(tmp_path / "fresh")]
    assert main(fresh) == 0
    assert "reproduced" in capsys.readouterr().out

    doc = json.loads(baseline.read_text())
    doc["fingerprints"][CELL] = "0x0badf00d"
    baseline.write_text(json.dumps(doc))

    assert main(fresh) == 2
    assert "REPRODUCTION FAILED" in capsys.readouterr().err
    assert main(run + ["--out", str(tmp_path / "second")]) == 1
    assert f"fingerprint of {CELL}" in capsys.readouterr().err
