"""The repo benchmark: five workloads, end to end and layer by layer.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``). Without ``--workload`` all five run
and a table is printed; ``--repeatability`` does that twice and
compares, ``--selfcheck`` smoke-tests the harness at 1 % size. See
``perf/README.md``.

Each workload runs in a child interpreter in a session of its own, is
waited for with a hard timeout, and is killed as a session on expiry;
after each child the driver scans ``/proc`` for survivors of that
session and fails if there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
#: a run must end within 180 s; the child gets a little less
CHILD_TIMEOUT_S = 170.0
SELFCHECK_SCALE = 0.01
#: counted or modeled, not timed: the same seed must give the same value
EXACT_METRICS = ("locality", "load_balance")


class BenchmarkError(Exception):
    """The harness itself failed (crash, timeout, surviving process)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------


def session_members(session: int) -> List[int]:
    """Pids of the live (non-zombie) processes in ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # exited while we were looking
            continue
        # pid (comm) state ppid pgrp session ...; comm may hold spaces
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


def kill_session(session: int) -> None:
    for pid in session_members(session):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_child(
    workload: str, seed: int, seconds: float, trace: int, scale: float = 1.0
) -> dict:
    """Run one workload in its own interpreter and session; return the
    document it printed. Raises :class:`BenchmarkError` if it crashed,
    hung or left a process behind."""
    command = [
        sys.executable,
        os.path.join(PERF_DIR, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", str(scale),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # session id == child.pid
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload}: no result within {CHILD_TIMEOUT_S:g} s; killed"
        ) from None
    finally:
        if child.poll() is None:  # timeout, Ctrl-C or SIGTERM
            kill_session(child.pid)
            child.communicate()
    survivors = session_members(child.pid)
    if survivors:
        kill_session(child.pid)
        raise BenchmarkError(
            f"{workload}: left processes running: {survivors}"
        )
    if child.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited with code {child.returncode}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: child printed no result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def result_of(document: dict, declared: List[dict]) -> dict:
    """The contract's result object: every declared metric, by name
    (0 where a per-layer metric does not apply to the workload)."""
    values = document["values"]
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise BenchmarkError(
            f"metrics missing from BENCHMARK.json: {sorted(unknown)}"
        )
    return {
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            metric["name"]: {
                "value": values.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }


def print_table(title: str, document: dict, declared: List[dict]) -> None:
    print(f"\n{title}  (seed {document['seed']}, "
          f"ops attempted {document['attempted']}, failed {document['failed']})")
    print(f"  {'metric':34} {'unit':>6} {'reported':>14} {'median':>14} "
          f"{'min':>14} {'max':>14} {'n':>3}")
    for metric in declared:
        name = metric["name"]
        if name not in document["values"]:
            continue
        line = f"  {name:34} {metric['unit']:>6} {document['values'][name]:14.6g}"
        samples = document["samples"].get(name)
        if samples:  # what the single set-ups / cycles read
            line += (
                f" {statistics.median(samples):14.6g} {min(samples):14.6g}"
                f" {max(samples):14.6g} {len(samples):3d}"
            )
        print(line)
    slowdowns = document["samples"].get("machine_slowdown")
    if slowdowns:
        print(
            f"  machine: reference loop {statistics.median(slowdowns):.2f}x "
            f"({min(slowdowns):.2f}-{max(slowdowns):.2f}) its undisturbed "
            f"time; timings above are divided by it"
        )


def run_all(
    spec: dict, seed: int, seconds: float, trace: int, scale: float
) -> Dict[str, dict]:
    """Every workload once (plus once traced when asked), printed as
    tables; returns workload -> untraced result object."""
    results = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        document = run_child(name, seed, seconds, 0, scale)
        print_table(name, document, spec["end_to_end"])
        results[name] = result_of(document, spec["end_to_end"])
        if trace:
            traced = run_child(name, seed, seconds, 1, scale)
            print_table(name + " [traced]", traced, spec["per_layer"])
            print(f"  spans: {traced['span_file']}")
            result_of(traced, spec["per_layer"])  # every metric declared?
            results[name]["failed"] += traced["failed"]
    return results


def failures(results: Dict[str, dict]) -> List[str]:
    return [
        f"{name}: {result['failed']} of {result['attempted']} ops failed"
        for name, result in results.items()
        if result["failed"]
    ]


def compare_runs(spec: dict, first: dict, second: dict) -> List[str]:
    """Print both medians per (workload, metric); return the pairs whose
    difference exceeds the metric's bound (any difference at all for
    the counted metrics)."""
    problems = []
    print(f"\n{'workload':20} {'metric':18} {'first':>14} {'second':>14} "
          f"{'diff':>8} {'bound':>6}")
    for name in first:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a = first[name]["metrics"][key]["value"]
            b = second[name]["metrics"][key]["value"]
            diff = abs(b - a) / abs(a)
            exact = key in EXACT_METRICS
            bad = (a != b) if exact else diff > metric["bound"]
            print(
                f"{name:20} {key:18} {a:14.6g} {b:14.6g} {diff:8.2%} "
                f"{'exact' if exact else format(metric['bound'], '.0%'):>6}"
                f"{'  <-- FAIL' if bad else ''}"
            )
            if bad:
                problems.append(f"{name}/{key}: {a:.6g} vs {b:.6g}")
    return problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeatability", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    # leave through run_child's clean-up when told to stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    try:
        if args.workload:
            declared = spec["per_layer" if args.trace else "end_to_end"]
            document = run_child(
                args.workload, args.seed, args.seconds, args.trace
            )
            print(json.dumps(result_of(document, declared)))
            return 0
        if args.selfcheck:
            results = run_all(spec, args.seed, 0.0, 1, SELFCHECK_SCALE)
            problems = failures(results)
        elif args.repeatability:
            first = run_all(spec, args.seed, args.seconds, 0, 1.0)
            second = run_all(spec, args.seed, args.seconds, 0, 1.0)
            problems = failures(first) + failures(second)
            problems += compare_runs(spec, first, second)
        else:
            results = run_all(spec, args.seed, args.seconds, args.trace, 1.0)
            problems = failures(results)
    except BenchmarkError as error:
        print(f"perf/run.py: {error}", file=sys.stderr)
        return 2
    print(f"\n{time.perf_counter() - started:.1f} s")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
