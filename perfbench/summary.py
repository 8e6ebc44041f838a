"""Run perfbench over several workloads and seeds and print every metric.

    python3 perfbench/summary.py                       # each workload, seed 1
    python3 perfbench/summary.py --seeds 1-10          # spread over ten seeds
    python3 perfbench/summary.py --workloads words --seeds 1-5 --trace 1

For each metric it prints the median over seeds and, with several seeds,
the quartile spread (Q3 - Q1) / median as ``statistics.quantiles`` gives
it, next to the metric's bound from ``BENCHMARK.json``.  ``failed_frac``
is the sum of failed items over the sum attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, args.trace) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"== {workload}  seeds {args.seeds}  correct={correct}  "
              f"failed_frac={failed / attempted!r} ({failed} of {attempted})")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            line = f"{name:48s} {med:>14.6g} {first['unit']:6s}"
            if args.values:
                line += " [" + " ".join(f"{v:.4g}" for v in values) + "]"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f" spread {spread:7.4f}"
                if name in bounds:
                    line += f" bound {bounds[name]:.2f}"
                    if name != "setup_s":
                        worst = max(worst, spread / bounds[name])
            print(line, flush=True)
    if len(seeds) >= 2 and args.trace == 0:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
