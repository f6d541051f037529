"""Alternating parent / change runs of the repo benchmark, and the
verdict of the `choosing-metrics` guide §8 on them.

Every performance PR has done this by hand: run ``perf/run.py`` on the
parent commit and on the working tree in alternation (which side goes
first alternates per pair, one seed per pair, so neither side owns the
quiet half of the machine's drift), then compare::

    python tools/paired_bench.py --parent HEAD \\
        --workload flickr-des-online --metric tuples_per_s

``--parent`` is a checkout (a directory) or a git revision, which is
archived into a scratch directory for the length of the run. The claim
on ``--metric`` is **met** when the change wins at least nine tenths of
the pairs (ties count for neither side) and the medians are apart, in
the metric's good direction, by more than the distance between the
quartiles of the parent's own runs. Every other end-to-end metric is
checked against its ``BENCHMARK.json`` bound: **regressed** when the
change's median is worse by more than the bound, **unresolved** when
the parent's own spread is wider than the bound (unless every run of
the change reads better than every run of the parent), **ok**
otherwise. Names, directions and bounds are read from
``BENCHMARK.json``; nothing under ``perf/`` is edited. Exit 0: claim
met, nothing regressed, no larger share of failed operations; 1
otherwise.

Without ``--metric`` the run claims nothing: every metric is checked
against its bound, and the verdict and exit status say only whether
one regressed or the change failed a larger share of operations::

    python tools/paired_bench.py --parent HEAD --workload flickr-mp-hash
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
#: runner(root, workload, seed, seconds) -> one run's ``{"attempted",
#: "failed", "metrics": {name: value}}``
Runner = Callable[[str, str, int, float], dict]


def load_metrics(root: str = REPO) -> Dict[str, dict]:
    """End-to-end metrics of ``BENCHMARK.json`` by name."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def run_benchmark(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perf/run.py`` run in ``root``. The result object
    is the last line it prints; its ``{"value", "unit"}`` metrics are
    flattened to values."""
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {
        name: metric["value"] for name, metric in result["metrics"].items()
    }
    return result


def pair_order(index: int) -> Tuple[str, str]:
    """Which side runs first in pair ``index``: they take turns."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def run_pairs(
    runner: Runner, roots: Dict[str, str], workload: str,
    pairs: int, seconds: float, first_seed: int, log=print,
) -> List[dict]:
    """``pairs`` pairs of runs, one seed each: ``{"seed", "parent",
    "change"}`` with a result object per side."""
    out = []
    for index in range(pairs):
        pair = {"seed": first_seed + index}
        for side in pair_order(index):
            pair[side] = runner(roots[side], workload, pair["seed"], seconds)
        log(f"pair {index + 1}/{pairs} seed {pair['seed']}: " + "  ".join(
            f"{name} {pair['parent']['metrics'][name]:.6g} -> "
            f"{pair['change']['metrics'][name]:.6g}"
            for name in pair["parent"]["metrics"]
        ))
        out.append(pair)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(metric: dict, parent: List[float], change: List[float]) -> dict:
    """Both readings of one metric over the pairs: as the claimed one
    (``claim``: met / not met) and as one that must not get worse
    (``guard``: ok / regressed / unresolved)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    spread = p_q3 - p_q1
    met = wins >= 0.9 * len(parent) and gain > spread
    limit = metric["bound"] * abs(p_med)
    if gain < -limit:
        guard = "regressed"
    elif spread > limit and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        guard = "unresolved"
    else:
        guard = "ok"
    return {
        "wins": wins, "losses": losses, "ties": len(parent) - wins - losses,
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else float("nan"),
        "claim": "met" if met else "not met", "guard": guard,
    }


def verdict(
    metrics: Dict[str, dict], claimed: Optional[str], pairs: List[dict]
) -> dict:
    """``judge`` of every metric, failure totals per side, and ``ok``:
    claim met (when one is made), no other metric regressed, no larger
    share failed."""
    rows = {
        name: judge(
            metrics[name],
            [pair["parent"]["metrics"][name] for pair in pairs],
            [pair["change"]["metrics"][name] for pair in pairs],
        )
        for name in metrics
    }
    failed = {
        side: (
            sum(pair[side]["failed"] for pair in pairs),
            sum(pair[side]["attempted"] for pair in pairs),
        )
        for side in SIDES
    }
    share = {s: failed[s][0] / max(1, failed[s][1]) for s in SIDES}
    regressed = [
        name for name, row in rows.items()
        if name != claimed and row["guard"] == "regressed"
    ]
    return {
        "pairs": len(pairs), "rows": rows, "failed": failed,
        "regressed": regressed,
        "ok": (claimed is None or rows[claimed]["claim"] == "met")
        and not regressed and share["change"] <= share["parent"],
    }


def render(workload: str, claimed: Optional[str], result: dict) -> str:
    lines = [
        f"{workload}: median [q1, q3] per side over {result['pairs']} pairs"
    ]
    for name, row in result["rows"].items():
        sides = "  ".join(
            f"{side} {row[side][1]:.6g} [{row[side][0]:.6g}, {row[side][2]:.6g}]"
            for side in SIDES
        )
        status = (
            f"claim {row['claim']}" if name == claimed else row["guard"]
        )
        lines.append(
            f"  {name:18} {sides}  x{row['ratio']:.3f}  "
            f"won {row['wins']} lost {row['losses']}  {status}"
        )
    lines.append("  failed / attempted: " + "  ".join(
        f"{side} {result['failed'][side][0]} / {result['failed'][side][1]}"
        for side in SIDES
    ))
    lines.append(
        "verdict: " + ("PASS" if result["ok"] else "FAIL")
        + ("" if claimed else " (no claim: regressions and failures only)")
    )
    return "\n".join(lines)


def checkout(parent: str, scratch: str) -> str:
    """``parent`` if it is a directory, else that revision of this
    repository archived under ``scratch``."""
    if os.path.isdir(parent):
        return os.path.abspath(parent)
    root = os.path.join(scratch, "parent")
    os.makedirs(root)
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", parent],
        stdout=subprocess.PIPE, check=True,
    )
    subprocess.run(["tar", "-x", "-C", root], input=archive.stdout, check=True)
    return root


def main(argv=None) -> int:
    metrics = load_metrics()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--parent", required=True,
                        help="checkout directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", choices=sorted(metrics),
                        help="the claimed metric; none: no-regression run")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=11)
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="paired-bench-")
    try:
        roots = {"parent": checkout(args.parent, scratch), "change": REPO}
        pairs = run_pairs(
            run_benchmark, roots, args.workload,
            args.pairs, args.seconds, args.first_seed,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = verdict(metrics, args.metric, pairs)
    print(render(args.workload, args.metric, result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
