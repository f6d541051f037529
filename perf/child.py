"""One workload in one interpreter: set-up, timed visits, verification.

Started by ``run.py`` with ``PYTHONHASHSEED=0`` (modeled outputs differ
by ~1 % across hash seeds and repeat exactly under a pinned one).
Prints one JSON document on its last line of standard output; the
driver turns it into the result.
"""

from __future__ import annotations

import time

_ENTRY = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)

#: set-ups timed per run (``setup_s`` is the median; each counts the imports)
SETUP_ROUNDS = 3
#: visits every unit gets at least, however short the run
MIN_VISITS = 3
#: The reference loop: its length, how often it is run for one reading
#: of the machine's speed, and what one pass takes on the machine the
#: bounds were sized on (2.1 GHz Xeon, CPython 3.11) when nothing
#: disturbs it. All reported times are in seconds of that machine.
REFERENCE_ITERATIONS = 60_000
REFERENCE_PASSES = 16
REFERENCE_S = 2.3e-3


def import_program():
    """Import ``perf/workloads.py`` against this checkout's ``src/``.

    A ``repro`` found anywhere else would measure some other program,
    so that is an error, as is a checkout without the source.
    """
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    sys.path.insert(0, PERF_DIR)
    import repro
    import workloads

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise ImportError(
            f"repro imported from {repro.__file__}, not from {source}"
        )
    return workloads


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def timed(fn, profile=None):
    """(fn's value, wall s, CPU s) of one call into the program: the
    timer spans all of it (deploy/fork, run, result extraction,
    teardown). ``profile`` is switched on for exactly the call."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        value = fn()
    finally:
        if profile is not None:
            profile.disable()
    wall = time.perf_counter() - start
    return value, wall, cpu_seconds() - cpu0


def timed_cycle(workload, profile=None):
    """Every unit once, as the traced run does it: (summed wall s, the
    units' outcomes)."""
    wall_s = 0.0
    outcomes = []
    for unit in range(workload.units):
        gc.collect()
        outcome, wall, _ = timed(lambda: workload.run(unit), profile)
        wall_s += wall
        outcomes.append(outcome)
    return wall_s, outcomes


def machine_slowdown() -> float:
    """How many times slower than on an undisturbed machine the
    reference loop runs right now (a reading takes about 50 ms)."""
    start = time.perf_counter()
    for _ in range(REFERENCE_PASSES):
        total = 0
        for index in range(REFERENCE_ITERATIONS):
            total += index * index % 7
    return (time.perf_counter() - start) / (REFERENCE_PASSES * REFERENCE_S)


def run_timed(workload, seconds: float, import_s: float) -> dict:
    # Every timed stretch is bracketed by two readings of the machine's
    # speed and divided by their mean: what is reported is the time the
    # stretch would have taken had the reference loop run at
    # REFERENCE_S throughout (perf/README.md, "Steadiness").
    slowdowns = [machine_slowdown()]

    def steadied(fn):
        value, wall, cpu = timed(fn)
        slowdowns.append(machine_slowdown())
        machine = (slowdowns[-2] + slowdowns[-1]) / 2
        return value, wall / machine, cpu / machine

    def set_up() -> None:
        workload.setup()
        workload.warmup()

    import_s /= slowdowns[0]
    setups = [import_s + steadied(set_up)[1] for _ in range(SETUP_ROUNDS)]

    # Cycle through the units until the time is up; a unit is charged
    # the median of its visits, the workload the sum over its units.
    units = range(workload.units)
    visits = [[] for _ in units]
    outcomes = [None for _ in units]
    attempted = failed = 0
    began = time.perf_counter()
    for unit in itertools.cycle(units):
        if (
            len(visits[unit]) >= MIN_VISITS
            and time.perf_counter() - began >= seconds
        ):
            break
        gc.collect()
        outcome, wall, cpu = steadied(lambda: workload.run(unit))
        unit_attempted, unit_failed = workload.verify(outcome)
        attempted += unit_attempted
        failed += unit_failed
        visits[unit].append({"wall_s": wall, "cpu_s": cpu})
        outcomes[unit] = outcome

    tuples = sum(outcome.tuples for outcome in outcomes)

    def charged(key: str) -> float:
        return sum(
            statistics.median(visit[key] for visit in visits[unit])
            for unit in units
        )

    def per_cycle(key: str):
        return [
            sum(visits[unit][cycle][key] for unit in units)
            for cycle in range(len(visits[-1]))  # the complete cycles
        ]

    return {
        "attempted": attempted,
        "failed": failed,
        "values": {
            "setup_s": statistics.median(setups),
            "tuples_per_s": tuples / charged("wall_s"),
            "cpu_us_per_tuple": 1e6 * charged("cpu_s") / tuples,
            "peak_rss_mb": peak_rss_mb(),
            "locality": statistics.fmean(o.locality for o in outcomes),
            "load_balance": statistics.fmean(o.load_balance for o in outcomes),
        },
        # what each set-up and each cycle read, for the tables
        "samples": {
            "setup_s": setups,
            "tuples_per_s": [tuples / wall for wall in per_cycle("wall_s")],
            "cpu_us_per_tuple": [
                1e6 * cpu / tuples for cpu in per_cycle("cpu_s")
            ],
            "machine_slowdown": slowdowns,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    workloads = import_program()
    import_s = time.perf_counter() - _ENTRY
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    if args.trace:
        import layers

        span_path = os.path.join(
            PERF_DIR, "out", f"spans-{args.workload}-seed{args.seed}.json"
        )
        document = layers.run_traced(workload, timed_cycle, span_path)
        document["span_file"] = os.path.relpath(span_path, ROOT)
    else:
        document = run_timed(workload, args.seconds, import_s)
    document["workload"] = args.workload
    document["seed"] = args.seed
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
