"""Determinism regression: same seed ⇒ identical trace.

Every record the telemetry layer emits is stamped with the *simulated*
clock only (DESIGN.md §8.3) — there are no wall-clock fields to strip —
so two same-seed runs must produce byte-identical telemetry and the
same event-sequence fingerprint, in this process and (checked via a
subprocess with a different ``PYTHONHASHSEED``) across processes.
"""

import json
import os
import subprocess
import sys

from repro.testing import RngTree, generate_config, run_episode

SEED = 1


def _telemetry_jsonl(result):
    return "\n".join(
        json.dumps(record, sort_keys=True, default=str)
        for record in result.sink.records
    )


def test_same_seed_identical_telemetry_and_fingerprint():
    tree = RngTree(0)
    first = run_episode(generate_config(tree, SEED))
    second = run_episode(generate_config(tree, SEED))
    assert first.fingerprint == second.fingerprint
    assert _telemetry_jsonl(first) == _telemetry_jsonl(second)
    assert [v.to_dict() for v in first.violations] == [
        v.to_dict() for v in second.violations
    ]


def test_different_seeds_diverge():
    tree = RngTree(0)
    first = run_episode(generate_config(tree, 0))
    second = run_episode(generate_config(tree, 2))
    assert first.fingerprint != second.fingerprint


def _subprocess_outputs(script: str) -> set:
    """What ``script`` prints in fresh interpreters under two different
    ``PYTHONHASHSEED`` values."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = set()
    for hash_seed in ("1", "421"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [env.get("PYTHONPATH"), src_dir])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(proc.stdout.strip())
    return outputs


def test_fingerprint_stable_across_hash_randomization():
    """Replaying in a fresh interpreter with a different hash seed must
    not change the event sequence (the property bare ``hash()`` or
    set-iteration order anywhere in the hot path would break)."""
    script = (
        "from repro.testing import RngTree, generate_config, run_episode;"
        f"r = run_episode(generate_config(RngTree(0), {SEED}));"
        "print(r.fingerprint, r.telemetry_records)"
    )
    outputs = _subprocess_outputs(script)
    assert len(outputs) == 1, outputs
    in_process = run_episode(generate_config(RngTree(0), SEED))
    expected = f"{in_process.fingerprint} {in_process.telemetry_records}"
    assert outputs == {expected}


#: The paper's own workload: *string* keys (``workloads/pairs.py``
#: episodes use integers, which hash identically in every process), two
#: committed rounds, the second diffing one table against another.
_FLICKR_SCRIPT = """
from repro.core import Manager, ManagerConfig
from repro.engine.backends import BackendOptions, run_topology
from repro.workloads.flickr import FlickrConfig, FlickrWorkload

topology = FlickrWorkload(FlickrConfig(num_tags=300, seed=5)).topology(
    parallelism=3, tuples_per_instance=2500
)
managers = []

def attach(deployment):
    managers.append(Manager(deployment, ManagerConfig()))
    for at in (0.004, 0.02):
        deployment.sim.schedule(at, managers[0].reconfigure)

result = run_topology(
    topology,
    "reference",
    BackendOptions(fingerprint=True, on_deployed=attach),
)
moved = [r.plan.total_moved_keys() for r in managers[0].completed_rounds]
print(result.fingerprint, result.sim_s, result.locality, moved)
"""


def test_fingerprint_stable_across_hash_randomization_with_string_keys():
    """The same check on string keys and a round that migrates: the
    order of every migration list (hence hold/release order and
    downstream timing) must not follow string hashing."""
    outputs = _subprocess_outputs(_FLICKR_SCRIPT)
    assert len(outputs) == 1, outputs
    moved = json.loads(outputs.pop().split(" ", 3)[3])
    assert len(moved) == 2 and all(count > 0 for count in moved)
