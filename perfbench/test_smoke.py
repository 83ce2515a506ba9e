#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny size, both modes.

    python3 perfbench/test_smoke.py      (from the root of the repository)

For each workload, run.py --smoke must exit 0, which it does only when
every metric BENCHMARK.json names is present with its unit; none of the
end-to-end ones may be 0, and failed_ratio must be 0. The traced runs must also show the split each
workload exists for.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# linear-serve and resnet20-latency are runnable but not in
# BENCHMARK.json (README.md); smoke mode runs resnet20 on a tiny CNN.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + [
    "linear-serve", "resnet20-latency"]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    report = {}
    for line in lines:
        if line.startswith("report:"):
            name, value = line.split()[1:3]
            report[name] = float(value)
    return proc, json.loads(lines[-1]), report


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc, result, report = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(report.get("failed_ratio"), 0.0)
        self.assertIn("top1_agree", report)
        self.assertIn("logit_err_max", report)
        self.assertIn("out_of_domain_draws", report)
        # run.py has already checked every metric's presence and unit.
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.check(w, 0)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(m[metric["name"]], 0.0, metric["name"])

    def test_traced_split(self):
        layers = {w: self.check(w, 1) for w in WORKLOADS}
        for w in ("mlp-latency", "resnet20-latency"):
            m = layers[w]
            self.assertGreater(m["codegen.region_bootstrap_s"],
                               0.5 * m["codegen.run_s"], w)
        self.assertEqual(layers["linear-serve"]["fhe.bootstraps"], 0.0)
        self.assertGreater(layers["linear-serve"]["fhe.rotations"], 0.0)
        serve = layers["mlp-serve"]
        self.assertGreater(serve["service.queue_p50_s"], 0.0)
        self.assertGreater(serve["service.exec_p50_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
