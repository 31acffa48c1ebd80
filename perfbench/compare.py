#!/usr/bin/env python3
"""Compare two sets of benchmark result records (.bench_build/results/*.json)
metric by metric, refusing when their provenance differs.

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [...]

Each side's median per metric is printed with the change against the base
side and the metric's bound from BENCHMARK.json. Records whose build type,
compiler, flags, CPU model or hardware thread count differ are not
comparable: a Release and a RelWithDebInfo build differ by up to 2x on the
vectorized kernels, so such a comparison says nothing about the code.
Exits 2 on a provenance mismatch, 1 if a metric regressed beyond its bound.
"""

import json
import statistics
import sys
from pathlib import Path

PINNED = ("build_type", "compiler", "cxx_flags", "cpu_model", "nproc")
SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def provenance_key(record):
    return tuple(record["provenance"].get(k) for k in PINNED)


def check_comparable(records):
    """None if every record shares one pinned provenance and one
    workload, else the reason they do not."""
    keys = {provenance_key(r) for r in records}
    if len(keys) > 1:
        return "provenance differs: " + "; ".join(
            ", ".join(f"{k}={v}" for k, v in zip(PINNED, key))
            for key in sorted(keys, key=str))
    if len({(r["workload"], r["trace"]) for r in records}) > 1:
        return "records mix workloads or traced and untraced runs"
    return None


def medians(records):
    values = {}
    for r in records:
        for name, metric in r["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1:])
    if not base or not new:
        print("compare: need records on both sides", file=sys.stderr)
        return 2
    reason = check_comparable(base + new)
    if reason:
        print(f"compare: refusing to compare, {reason}", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    base_m, new_m = medians(base), medians(new)
    regressed = False
    for name in sorted(set(base_m) & set(new_m)):
        b, n = base_m[name], new_m[name]
        change = (n - b) / b if b else 0.0
        m = spec.get(name, {})
        worse = change if m.get("better") == "lower" else -change
        bound = m.get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag, regressed = "  REGRESSED", True
        print(f"{name:>36}: {b:.6g} -> {n:.6g} ({change:+.1%})"
              f"{'' if bound is None else f', bound {bound:.0%}'}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
