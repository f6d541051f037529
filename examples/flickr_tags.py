#!/usr/bin/env python
"""Reconfiguration on a stable workload (the paper's Fig. 13 scenario).

Runs the Flickr-like application (count tags, then countries; 4 kB
tuples on a 1 Gb/s network) twice — with periodic reconfiguration and
without — and prints the two throughput time series side by side. The
jump right after the first reconfiguration, with no dip during state
migration, is the paper's Section 4.4 result. Both runs are one cell
of `campaigns/fig13-locality.yaml`, through the same point function.

The reconfiguring run also exports its telemetry (reconfiguration
spans, periodic snapshots, metric dump); render it with

    python -m repro.analysis.report results/telemetry.jsonl

Run:  python examples/flickr_tags.py
"""

import os

from repro.analysis.experiments import flickr_run

SERVERS = 6
PADDING = 4000
BANDWIDTH_GBPS = 1.0
DURATION_S = 1.8
PERIOD_S = 0.6  # time-compressed: the paper uses 30 min / 10 min
SAMPLE_S = 0.1
TELEMETRY = os.path.join("results", "telemetry.jsonl")


def one_run(reconfigure: bool):
    return flickr_run(
        SERVERS,
        PADDING,
        BANDWIDTH_GBPS,
        reconfigure,
        duration_s=DURATION_S,
        period_s=PERIOD_S,
        sample_interval_s=SAMPLE_S,
        telemetry_path=TELEMETRY if reconfigure else None,
    )


def main():
    os.makedirs(os.path.dirname(TELEMETRY), exist_ok=True)
    with_reconf = one_run(reconfigure=True)
    without_reconf = one_run(reconfigure=False)

    print(
        f"{SERVERS} servers, {PADDING} B tuples, {BANDWIDTH_GBPS} Gb/s, "
        f"reconfiguration every {PERIOD_S}s "
        f"({with_reconf['rounds']} rounds)\n"
    )
    print(f"{'time':>6}  {'w/ reconf':>12}  {'w/o reconf':>12}")
    for with_sample, without_sample in zip(
        with_reconf["samples"], without_reconf["samples"]
    ):
        t = with_sample["time"]
        marker = "  <- reconfiguration" if abs(
            t % PERIOD_S
        ) < SAMPLE_S and t > SAMPLE_S else ""
        print(
            f"{t:5.1f}s  {with_sample['throughput'] / 1e3:9.1f} K/s  "
            f"{without_sample['throughput'] / 1e3:9.1f} K/s{marker}"
        )

    gain = (
        with_reconf["mean_after_first_reconf"]
        / without_reconf["mean_after_first_reconf"]
    )
    print(f"\nsteady-state throughput gain: x{gain:.2f}")
    print(f"telemetry of the reconfiguring run: {TELEMETRY}")


if __name__ == "__main__":
    main()
