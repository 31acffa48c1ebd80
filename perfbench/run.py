#!/usr/bin/env python3
"""Repository benchmark: build the workload program, run one workload, and
print its result as the last line of standard output.

    python3 perfbench/run.py --workload <fig1_sweep|serve_mix|sim_validation>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest      # the benchmark's own tests

The workload program and the tokenring libraries are compiled from this checkout's
sources into .bench_build/ in one pinned build type (Release unless
--build-type says otherwise). The last line is one JSON object with the
keys correct, attempted, failed and metrics; metric names and units come
from BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
Each run also leaves a result record with its provenance under
.bench_build/results/ (compare two with perfbench/compare.py) and, when
traced, its spans under .bench_build/traces/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig1_sweep", "serve_mix", "sim_validation")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_type, targets):
    """Configure (once) and build `targets`; returns the build directory."""
    base = ROOT / ".bench_build"
    build_dir = base / f"perfbench-{build_type.lower()}"
    base.mkdir(parents=True, exist_ok=True)
    with open(base / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 f"-DCMAKE_BUILD_TYPE={build_type}"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
             "--target", *targets],
            check=True, stdout=sys.stderr)
    return build_dir


def source_fingerprint():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in is not necessarily a git repository)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # not a git checkout; never report an enclosing repo's
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metric_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def finalize(raw, trace):
    """Attach units; every end-to-end metric must be measured, per-layer
    metrics of layers a workload never enters read 0."""
    spec = metric_spec(trace)
    measured = raw["metrics"]
    unknown = sorted(set(measured) - set(spec))
    if unknown:
        raise SystemExit(f"perfbench: unlisted metrics {unknown}")
    if raw["correct"] and not trace and set(measured) != set(spec):
        raise SystemExit(
            f"perfbench: missing metrics {sorted(set(spec) - set(measured))}")
    metrics = {}
    if raw["correct"]:
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
                   for name, unit in spec.items()}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def run_workload(args):
    build_dir = build(args.build_type, ["perfbench"])
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{stamp}.jsonl")]
    started = time.time()
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    provenance = json.loads(lines[-2])["provenance"]
    provenance.update(git_commit=git_commit(),
                      source_sha256=source_fingerprint())
    raw = json.loads(lines[-1])
    for note in raw["notes"]:
        log(note)
    for gate in raw["gate_failures"]:
        log(f"GATE FAILED: {gate}")
    result = finalize(raw, args.trace)

    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": started, "provenance": provenance,
              "gate_failures": raw["gate_failures"], "notes": raw["notes"],
              "result": result}
    (results / f"{stamp}-{int(started)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def selftest(args):
    build_dir = build(args.build_type, ["perfbench_test"])
    native = subprocess.run([str(build_dir / "perfbench_test")]).returncode
    python = subprocess.run(
        [sys.executable, "-B", "-m", "unittest", "discover", "-s",
         str(HERE / "tests"), "-p", "test_*.py"]).returncode
    return native or python


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-type", default="Release")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.selftest or args.workload):
        parser.error("--workload or --selftest is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        return selftest(args) if args.selftest else run_workload(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log(f"failed: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
