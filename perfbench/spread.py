#!/usr/bin/env python3
"""Run one workload under several seeds and report each end-to-end metric's
median and quartile spread (IQR / median) against its bound.

    python3 perfbench/spread.py --workload fig1_sweep --runs 10 [--first-seed 1]

A metric is steady when its spread stays below a third of its bound
(setup_s is reported but, like the acceptance check, not held to that).
Exits 1 if any run fails or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    worst = 0
    for metric in SPEC["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        steady = spread < metric["bound"] / 3
        if metric["name"] != "setup_s" and spread > metric["bound"]:
            worst = 1
        print(f"{metric['name']:>16}: median {med:.6g} {metric['unit']}, "
              f"spread {spread:.4f} (bound {metric['bound']}) "
              f"{'steady' if steady else 'NOT steady'}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
