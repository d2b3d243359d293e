#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 \
        [--workloads suite figures points] [--trace 0]

Run from a checkout root.  Workloads are interleaved within each seed, so
slow drift of the host shows up in every workload alike instead of in one.
For each end-to-end metric it prints the median and the spread, the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, beside the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    config = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    values = {w: {} for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    for workload, metrics in values.items():
        for name, series in metrics.items():
            if name not in bounds:
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:8s} {name:12s} median={median:.6g} spread={spread:.4f} "
                  f"bound={bound} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
