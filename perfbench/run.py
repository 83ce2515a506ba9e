#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S
                             --trace 0|1 [--smoke]

WORKLOAD is mlp-latency or mlp-serve (the two in BENCHMARK.json), or
linear-serve or resnet20-latency (runnable, not gated; README.md).

Run it from the root of the repository. Each call configures and builds
perfbench/ (and with it the repository's libraries) into the directory
named by CARGO_TARGET_DIR, or .bench_build when that is unset; only the
first call compiles much. It then runs one workload and
forwards the driver binary's output, whose last line is the result JSON.
It also checks that result against BENCHMARK.json: every metric it names
must be present with its unit. Exits nonzero on a build failure, a failed
operation, a wrong output or a malformed result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet20-latency", "mlp-latency", "mlp-serve", "linear-serve")


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "acebench",
              "-j", "4"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "acebench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(line, trace):
    """Returns a list of problems with the result line (empty when fine)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    metrics = result["metrics"]
    for name, unit in expected_metrics(trace):
        if name not in metrics:
            problems.append("metric %s missing" % name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s has unit %s, not %s"
                            % (name, metrics[name].get("unit"), unit))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if result["failed"] != 0:
        problems.append("%s of %s operations failed"
                        % (result["failed"], result["attempted"]))
    if result["correct"] is not True:
        problems.append("outputs are not correct")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        return 1
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    problems = check_result(lines[-1], args.trace)
    for p in problems:
        sys.stderr.write("run.py: %s\n" % p)
    if proc.returncode != 0 and not problems:
        problems.append("acebench exited with %d" % proc.returncode)
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
