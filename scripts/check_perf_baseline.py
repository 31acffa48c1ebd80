#!/usr/bin/env python3
"""Compare bench run manifests against the checked-in baseline.

Usage:
  check_perf_baseline.py --baseline bench/BENCH_kernels.json \
                         --current /tmp/bench.json \
                         [--current /tmp/serve.json ...] \
                         [--max-regression 1.5]

--current may repeat: each manifest contributes its "benchmarks" table and
the union is compared (micro_schedulability and serve_load record into one
baseline). Benchmark names must not collide across manifests.

Two gates:

1. Regression gate. For every benchmark present in the baseline, the ratio
   current/baseline cpu_time is computed, then normalized by the median
   ratio across all benchmarks. The median absorbs uniform machine-speed
   differences (CI runners are not the machine the baseline was recorded
   on); what remains is per-benchmark drift. Any normalized ratio above
   --max-regression (default 1.5) fails.

2. Pair gate. The bench suite contains reference/fast pairs measured in the
   same run (same machine, same load), so their ratio is machine
   independent. Each fast variant must beat its reference by the factor
   listed in PAIRS; this pins the point of the PR — the kernel path being
   faster than the predicate path — not just the absence of regressions.

Exit code 0 when both gates pass, 1 otherwise. Stdlib only.
"""

import argparse
import json
import statistics
import sys

# (fast benchmark prefix, reference prefix, required speedup). Matched per
# /arg suffix: BM_SaturationSearchPdpKernel/10 pairs with
# BM_SaturationSearchPdp/10. Required speedups are set below the locally
# measured factors so the gate trips on real behaviour changes, not timer
# noise. The kernel rows and the *Scalar rows run the batch kernels, one
# lane per set. Medians of eight CPU-pinned runs (Release, GCC 12.2.0,
# 4-vCPU Xeon): the kernel searches beat the predicate searches 2.1x (PDP
# n=10), 24x (PDP n=100, where the predicate path has no cost dominance)
# and 2.2/2.5/2.8x (TTP n=10/100/1000); the screened RTA verdict 77x.
#
# The SoA batch pairs (B = 8/64/256 lanes in lockstep vs the same searches
# on one one-lane kernel per set) are gated on measured factors too: the
# TTP probe loop is divide-throughput-bound (two divpd per element, and
# per-element divide throughput is the same at every SIMD width), so ~2x is
# the hardware ceiling for the bit-identical evaluate — measured 2.2x raw
# (BM_TtpEvaluate*) and 1.8-2.2x across whole searches. Both PDP paths run
# the same exact response-time analysis and cost dominance, so the PDP
# batch pair measures lockstep width alone (medians 1.03-1.19x): an
# anti-regression gate (lockstep bookkeeping must not cost), not a speedup
# claim.
PAIRS = [
    ("BM_SaturationSearchPdpKernel", "BM_SaturationSearchPdp", 1.5),
    ("BM_SaturationSearchTtpKernel", "BM_SaturationSearchTtp", 1.5),
    ("BM_RtaScreened", "BM_RtaExact", 2.0),
    ("BM_ScaledInto", "BM_ScaledCopy", 1.0),
    ("BM_SaturationBatchPdp", "BM_SaturationScalarPdp", 0.85),
    ("BM_SaturationBatchTtp", "BM_SaturationScalarTtp", 1.4),
    ("BM_TtpEvaluateBatch", "BM_TtpEvaluateScalar", 1.5),
]
# bench/sim_scaling.cpp has no in-run pair: its rows meet the regression
# gate, and the idle-lap saving they rest on is pinned as deterministic
# event counts by tests/sim_engine_test.cpp (SimScaling.*).

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Per-benchmark-prefix override of --max-regression. The serve_load rows
# are loopback TCP measurements: closed-loop queueing latency percentiles
# swing with scheduler jitter far more than the in-process kernel timings,
# so they get a wider (but still bounded) regression budget.
RELAXED_MAX_REGRESSION = {
    "BM_Serve": 4.0,
}


def max_regression_for(name, default):
    for prefix, budget in RELAXED_MAX_REGRESSION.items():
        if name.startswith(prefix):
            return budget
    return default


def load_timings(path):
    """Manifest -> {benchmark name: cpu_time in ns}."""
    with open(path) as f:
        manifest = json.load(f)
    tables = [t for t in manifest.get("results", []) if t.get("name") == "benchmarks"]
    if not tables:
        sys.exit(f"error: {path}: no 'benchmarks' table in manifest")
    timings = {}
    for row in tables[0]["rows"]:
        # Complexity aggregates (_BigO/_RMS) report iterations == 0 and are
        # fit artefacts, not timings; skip them.
        if int(row["iterations"]) == 0:
            continue
        timings[row["name"]] = float(row["cpu_time"]) * TIME_UNIT_NS[row["time_unit"]]
    if not timings:
        sys.exit(f"error: {path}: 'benchmarks' table is empty")
    return timings


def load_all_timings(paths):
    """Union of every manifest's benchmarks; duplicate names are an error."""
    merged = {}
    for path in paths:
        timings = load_timings(path)
        overlap = sorted(set(merged) & set(timings))
        if overlap:
            sys.exit(f"error: {path}: benchmark names already seen in another "
                     f"--current manifest: {overlap}")
        merged.update(timings)
    return merged


def split_arg(name):
    """'BM_Foo/100' -> ('BM_Foo', '/100'); no-arg names get an empty suffix."""
    head, sep, tail = name.partition("/")
    return head, sep + tail


def check_regressions(baseline, current, max_regression):
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"FAIL: benchmarks in baseline but not in current run: {missing}")
        return False
    ratios = {name: current[name] / baseline[name] for name in baseline}
    # The machine-speed normalizer comes from the tight-budget benchmarks
    # only: the relaxed (wall-clock) rows would drag the median around on
    # loaded runners and loosen every other gate.
    tight = [r for name, r in ratios.items()
             if max_regression_for(name, max_regression) == max_regression]
    median = statistics.median(tight if tight else list(ratios.values()))
    print(f"median current/baseline ratio: {median:.3f} "
          f"(machine-speed normalizer)")
    ok = True
    for name in sorted(ratios):
        normalized = ratios[name] / median
        budget = max_regression_for(name, max_regression)
        flag = ""
        if normalized > budget:
            flag = f"  <-- FAIL (> {budget:.2f}x median)"
            ok = False
        print(f"  {name:45s} {baseline[name]:>12.1f} -> {current[name]:>12.1f} ns"
              f"  x{normalized:.2f}{flag}")
    return ok


def check_pairs(current):
    by_prefix = {}
    for name in current:
        head, suffix = split_arg(name)
        by_prefix.setdefault(head, {})[suffix] = current[name]
    ok = True
    for fast, ref, required in PAIRS:
        fast_runs = by_prefix.get(fast, {})
        ref_runs = by_prefix.get(ref, {})
        suffixes = sorted(set(fast_runs) & set(ref_runs))
        if not suffixes:
            print(f"FAIL: pair {fast} vs {ref}: no common runs in current manifest")
            ok = False
            continue
        for suffix in suffixes:
            speedup = ref_runs[suffix] / fast_runs[suffix]
            flag = ""
            if speedup < required:
                flag = f"  <-- FAIL (< {required:.1f}x)"
                ok = False
            print(f"  {fast + suffix:45s} {speedup:6.2f}x faster than "
                  f"{ref + suffix}{flag}")
    return ok


def update_baseline(baseline_path, current_paths):
    """Replace the checked-in baseline with the current manifests.

    The pair gate still runs first: a refreshed baseline must not smuggle in
    a run where the fast variants stopped beating their references. With
    several --current manifests the first one is the carrier: the others'
    benchmark rows are appended to its "benchmarks" table so the baseline
    stays one file.
    """
    current = load_all_timings(current_paths)  # validates the manifest shapes
    print("== reference-vs-fast pair gate (pre-update) ==")
    if not check_pairs(current):
        print("baseline NOT updated: pair gate failed on the new manifest")
        return 1
    with open(current_paths[0]) as f:
        manifest = json.load(f)
    carrier = next(t for t in manifest["results"] if t["name"] == "benchmarks")
    for path in current_paths[1:]:
        with open(path) as f:
            extra = json.load(f)
        for table in extra.get("results", []):
            if table.get("name") == "benchmarks":
                carrier["rows"].extend(table["rows"])
    with open(baseline_path, "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    print(f"baseline updated: {', '.join(current_paths)} -> {baseline_path} "
          f"({len(current)} benchmarks)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True, action="append",
                        help="bench run manifest; may repeat, the union of "
                             "all 'benchmarks' tables is compared")
    parser.add_argument("--max-regression", type=float, default=1.5)
    parser.add_argument("--update", action="store_true",
                        help="regenerate the baseline from --current instead "
                             "of comparing against it (pair gate still runs)")
    args = parser.parse_args()

    if args.update:
        return update_baseline(args.baseline, args.current)

    baseline = load_timings(args.baseline)
    current = load_all_timings(args.current)

    print("== regression gate ==")
    regressions_ok = check_regressions(baseline, current, args.max_regression)
    print("== reference-vs-fast pair gate ==")
    pairs_ok = check_pairs(current)

    if regressions_ok and pairs_ok:
        print("perf baseline check: PASS")
        return 0
    print("perf baseline check: FAIL")
    return 1


if __name__ == "__main__":
    sys.exit(main())
