#!/usr/bin/env python3
"""Builds the AutoIndex engine and the benchmark runner, runs one workload,
checks its outputs, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload tpcc_drift --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs
the workload untraced and then traced, and reports the per-layer metrics of
the traced run plus trace.overhead_frac, the share of throughput the
benchmark's own spans cost. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("tpcc_drift", "tpcc_durable_net", "tpcds_tuned")
BUILD_TYPE = "RelWithDebInfo"
# Seeds 1-12 and 99 were used while the benchmark was built and tuned. This
# one was not; later performance claims should also hold on it.
HOLDOUT_SEED = 4242
# Each invocation must end within 180 s (900 s when it has to build).
RUN_DEADLINE_S = 175
BUILD_DEADLINE_S = 850

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources next to perfbench/; run from an AutoIndex checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_DEADLINE_S
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                          build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, args, deadline):
    """Runs the runner once; returns (parsed last JSON line, exit code)."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload run exceeded its deadline: " + " ".join(args))
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), done.returncode
    except (ValueError, IndexError):
        fail("runner printed no result (exit %d)" % done.returncode)


def source_digest():
    """sha256 over the engine and benchmark sources (the checkout may not be
    a git repository, so this stands in for a commit id)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = os.path.join(build_root(), "perfbench-out")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", out_dir]

    for key, value in (("nproc", os.cpu_count()), ("build_type", BUILD_TYPE),
                       ("git_sha", git_sha()), ("source_sha256", source_digest()),
                       ("holdout_seed", HOLDOUT_SEED)):
        print("%s: %s" % (key, value))

    if not args.trace:
        result, code = run_workload(binary, common, deadline)
        metrics = result["metrics"]
    else:
        untraced, code = run_workload(binary, common, deadline)
        traced, traced_code = run_workload(binary, common + ["--trace"], deadline)
        code = code or traced_code
        qps = untraced["metrics"]["qps"]["value"]
        traced_qps = traced["attempted"] / float(traced["info"]["window_s"])
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_frac"] = {"value": (qps - traced_qps) / qps,
                                          "unit": "ratio"}
        result = dict(traced)
        result["correct"] = untraced["correct"] and traced["correct"]

    for failure in result.get("failures", []):
        print("CHECK FAILED: " + failure)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
