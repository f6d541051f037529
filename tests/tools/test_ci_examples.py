"""Every example is run by CI: an example nothing runs goes stale, and
so does whatever only it reaches."""

import glob
import os

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def test_every_example_is_run_by_ci():
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as handle:
        workflow = handle.read()
    examples = sorted(
        os.path.relpath(path, REPO)
        for path in glob.glob(os.path.join(REPO, "examples", "*.py"))
    )
    assert examples
    unrun = [path for path in examples if f"python {path}" not in workflow]
    assert not unrun, f"examples no CI step runs: {unrun}"
