#!/usr/bin/env python3
"""Tests of the repository benchmark, run through its own command.

    python3 perfbench/test_perfbench.py

Short runs (--seconds 0, --scale 0.05) of every workload check that the
last line follows the benchmark contract, that every metric BENCHMARK.json
names is emitted with its unit and better-direction, and that results are
deterministic: one seed twice, traced against untraced, and a second seed
that must change the seed-generated inputs.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_METRICS = ("sim_msg_rate_mmps", "sim_lat_p50_ns", "sim_lat_p99_ns", "model_err_pct")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    """Runs the benchmark command; returns (table lines, last-line JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "0.05"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def table(lines):
    """Metric rows of the printed table: name -> (unit, better)."""
    rows = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 4 and parts[3] in ("higher", "lower"):
            rows[parts[0]] = (parts[2], parts[3])
    return rows


def determinism(lines):
    line = next(l for l in lines if l.startswith("determinism "))
    return dict(kv.split("=") for kv in line.split()[1:])


class ContractTest(unittest.TestCase):
    def check_run(self, workload, trace):
        lines, last = run(workload, 1, trace)
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(last["metrics"]), {m["name"] for m in wanted})
        rows = table(lines)
        for m in wanted:
            got = last["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertIsInstance(got["value"], (int, float))
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertEqual(rows[m["name"]], (m["unit"], m["better"]), m["name"])
        return lines, last

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                _, e2e = self.check_run(w["name"], 0)
                for name in ("ops_per_host_s", "setup_s", "peak_rss_mb") + SIM_METRICS:
                    self.assertGreater(e2e["metrics"][name]["value"], 0, name)
                self.check_run(w["name"], 1)

    def test_inject_reproduces_the_paper_rate(self):
        _, last = run("inject_8B", 1, 0)
        m = last["metrics"]
        self.assertAlmostEqual(m["sim_msg_rate_mmps"]["value"], 3.79, delta=0.02)
        self.assertLess(m["model_err_pct"]["value"], 1.0)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_simulation(self):
        # A traced run takes its sim-clock figures from its traced rounds,
        # so matching the untraced run shows that spans only read clocks.
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                lines_a, a = run(w["name"], 7, 0)
                lines_b, b = run(w["name"], 7, 0)
                lines_t, _ = run(w["name"], 7, 1)
                self.assertEqual(determinism(lines_a), determinism(lines_b))
                self.assertEqual(determinism(lines_a), determinism(lines_t))
                for name in SIM_METRICS:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_seed_reaches_the_program(self):
        lines_a, a = run("pingpong_mix_lossy", 1, 0)
        lines_b, b = run("pingpong_mix_lossy", 2, 0)
        da, db = determinism(lines_a), determinism(lines_b)
        self.assertNotEqual(da["size_seq_hash"], db["size_seq_hash"])
        self.assertNotEqual(da["op_fingerprint"], db["op_fingerprint"])
        self.assertNotEqual(a["metrics"]["sim_lat_p99_ns"], b["metrics"]["sim_lat_p99_ns"])


if __name__ == "__main__":
    unittest.main()
