#!/usr/bin/env python3
"""Build the program and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload kv-read|kv-write|alloc-churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. The first run configures and builds
perfbench/ (and through it the program) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check the build.
Build output goes to stderr, so the last line of stdout is always the
result: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
twice, untraced and then traced, and reports the traced run's
per-layer metrics plus the tracing overhead (traced minus untraced) of
its latency and throughput. --workload all runs the three workloads
untraced and reports every end-to-end metric as <workload>.<metric>.

Exits non-zero without a result line if the build fails, and with a
result line if any operation failed or any output was wrong.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ["kv-read", "kv-write", "alloc-churn"]
# The whole command must finish well inside three minutes.
DEADLINE_S = 170
OVERHEAD_METRICS = ["p50_us", "p99_us", "throughput_per_s"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build only the benchmark binary."""
    if not (CHECKOUT / "src" / "core" / "runtime.h").is_file():
        fail(f"no program sources in {CHECKOUT}")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = CHECKOUT / target
    build_dir = target / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def run_binary(build_dir, workload, seed, seconds, trace, deadline):
    """Run perfbench once; returns (exit code, stdout lines)."""
    cmd = [str(build_dir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload} exited {proc.returncode} without a result")
    return proc.returncode, lines


def traced_e2e(lines):
    for line in lines:
        if line.startswith("traced_end_to_end "):
            return json.loads(line.split(" ", 1)[1])
    fail("traced run printed no end-to-end figures")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    build_dir = build()

    if args.workload == "all":
        # Three full runs do not fit the single-run deadline.
        deadline = time.monotonic() + 3 * DEADLINE_S
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        code = 0
        for workload in WORKLOADS:
            rc, lines = run_binary(build_dir, workload, args.seed,
                                   args.seconds, False, deadline)
            print("\n".join(lines[:-1]))
            one = json.loads(lines[-1])
            code = code or rc
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(result))
        return code

    if not args.trace:
        rc, lines = run_binary(build_dir, args.workload, args.seed,
                               args.seconds, False, deadline)
        print("\n".join(lines))
        return rc

    rc0, plain = run_binary(build_dir, args.workload, args.seed,
                            args.seconds, False, deadline)
    rc1, traced = run_binary(build_dir, args.workload, args.seed,
                             args.seconds, True, deadline)
    print("\n".join(plain[:-1]))
    print("\n".join(traced[:-1]))
    untraced = json.loads(plain[-1])
    result = json.loads(traced[-1])
    with_trace = traced_e2e(traced)
    print("tracing overhead (traced - untraced):")
    for name in OVERHEAD_METRICS:
        diff = with_trace[name]["value"] - untraced["metrics"][name]["value"]
        unit = untraced["metrics"][name]["unit"]
        result["metrics"][f"trace.overhead_{name}"] = {"value": diff,
                                                       "unit": unit}
        print(f"  trace.overhead_{name:<24} {diff:16.4f} {unit}")
    result["correct"] = result["correct"] and untraced["correct"]
    result["attempted"] += untraced["attempted"]
    result["failed"] += untraced["failed"]
    print(json.dumps(result))
    return rc0 or rc1


if __name__ == "__main__":
    sys.exit(main())
