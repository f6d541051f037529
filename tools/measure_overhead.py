"""Overhead of what is off by default: telemetry and elasticity.

The observability layer promises to be opt-in: with the default null
sink the instrumented code paths cost (nearly) nothing, because hot
paths only increment plain integers that were already being counted or
check a single ``sink.enabled`` flag. The elasticity seams (spawn and
retire observers, resizable routers, queue-depth probes) make the same
promise for a controller that is constructed but never started. This
hand-run script verifies both: the same reconfiguring run is timed bare,
with telemetry attached on the null sink, with an idle
``ElasticityController``, and (informationally) with a live memory
sink; the null-sink and idle-controller overheads must each stay under
the 3 % budget stated in DESIGN.md §8 and §12.

Timing uses process CPU time, not the wall clock: the budget is a
claim about *work done per tuple*, and CPU time is immune to the
other-process interference that dominates wall-clock jitter on small
shared machines. The gate compares the *median of per-repeat ratios*
— each repeat runs a mode right after a bare run so both sides of a
ratio see the same machine state, and the median discards the odd repeat
that caught a frequency change or a page-cache miss. (A quotient of
two independent best-of-N minima, the previous scheme, flapped once
the engine fast path shrank the run enough for jitter to reach
several percent of it.) The ratios still read within +-3 % from run to
run, as wide as the budget itself, so this gates nothing in CI until it
is rehomed on the ``perf/`` protocol (ROADMAP, "Telemetry on every
backend, one catalog"). Exit 1 = over
budget, or a mode changed the computation::

    PYTHONPATH=src python tools/measure_overhead.py
"""

import random
import sys
import time

from repro.analysis.report import format_table
from repro.core import ElasticityController, Manager, ManagerConfig
from repro.engine import (
    Cluster,
    CountBolt,
    Simulator,
    TableFieldsGrouping,
    TopologyBuilder,
    deploy,
)
from repro.engine.operators import IteratorSpout
from repro.observability import MemorySink, NULL_SINK, attach_telemetry

N = 3
PER_SPOUT = 20000
REPEATS = 9  # odd: the gate takes a median of per-round ratios
BUDGET = 0.03  # the documented ceiling for each off-by-default mode
#: mode -> its row label, in the order the modes run inside a round
MODES = {
    "bare": "bare (seed behaviour)",
    "null-sink": "telemetry, null sink (default)",
    "idle-elasticity": "elasticity controller, never started",
    "memory-sink": "telemetry, live memory sink",
}


def _source(ctx):
    rng = random.Random(ctx.instance_index)
    for _ in range(PER_SPOUT):
        a = ctx.instance_index if rng.random() < 0.8 else rng.randrange(N)
        yield (a, a + 100)


def _build():
    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(_source), parallelism=N)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=N,
        inputs={"S": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=N,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


def _run_once(mode):
    sim = Simulator()
    cluster = Cluster(sim, N)
    deployment = deploy(sim, cluster, _build())
    manager = Manager(deployment, ManagerConfig(period_s=0.1))
    telemetry = None
    if mode == "null-sink":
        telemetry = attach_telemetry(
            deployment, manager=manager, sink=NULL_SINK
        )
    elif mode == "memory-sink":
        telemetry = attach_telemetry(
            deployment,
            manager=manager,
            sink=MemorySink(),
            snapshot_interval_s=0.02,
        )
    elif mode == "idle-elasticity":
        ElasticityController(manager)  # constructed, never started
    manager.start()
    deployment.start()
    start = time.process_time()
    sim.run(until=0.5)
    manager.stop()
    sim.run()
    elapsed = time.process_time() - start
    if telemetry is not None:
        telemetry.flush()
    tuples = deployment.metrics.processed_total("B")
    return elapsed, tuples


def _median(xs):
    s = sorted(xs)
    return s[len(s) // 2]


def measure_overhead():
    """Measure each mode's overhead vs the bare engine.

    Runs every mode once unrecorded (warmup), then ``REPEATS`` rounds;
    inside a round every mode runs right after a bare run of its own.
    The overhead of a mode is the median over rounds of the CPU-time
    ratio of that pair, minus one — see the module docstring for why
    ratios are paired and reduced by median.

    Returns ``(overheads, times, tuples)``: overhead fraction per
    non-bare mode, median CPU seconds per mode, and the processed
    tuple count per mode (for the must-not-change-the-computation
    check).
    """
    for mode in MODES:
        _run_once(mode)  # warmup: levels allocator/interpreter state
    samples = {mode: [] for mode in MODES}
    ratios = {mode: [] for mode in MODES if mode != "bare"}
    counts = {}
    for _ in range(REPEATS):
        for mode in ratios:
            bare_s, counts["bare"] = _run_once("bare")
            mode_s, counts[mode] = _run_once(mode)
            samples["bare"].append(bare_s)
            samples[mode].append(mode_s)
            ratios[mode].append(mode_s / bare_s)
    overheads = {mode: _median(xs) - 1.0 for mode, xs in ratios.items()}
    times = {mode: _median(xs) for mode, xs in samples.items()}
    return overheads, times, counts


def main() -> int:
    overheads, times, counts = measure_overhead()
    rows = [
        {
            "mode": label,
            "median_cpu_s": times[mode],
            "tuples": counts[mode],
            "overhead": (
                f"{overheads[mode]:+.1%}" if mode in overheads else "-"
            ),
        }
        for mode, label in MODES.items()
    ]
    print(
        format_table(
            rows,
            columns=["mode", "median_cpu_s", "tuples", "overhead"],
            title=(
                f"Off-by-default overhead (median of {REPEATS} paired "
                f"rounds, budget {BUDGET:.0%} for the null sink and the "
                f"idle controller)"
            ),
        )
    )
    problems = [
        f"{mode} changed the computation"
        for mode in overheads
        if counts[mode] != counts["bare"]
    ] + [
        f"{mode} overhead {overheads[mode]:.1%} exceeds the "
        f"{BUDGET:.0%} budget"
        for mode in ("null-sink", "idle-elasticity")
        if overheads[mode] >= BUDGET
    ]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
