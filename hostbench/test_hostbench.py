#!/usr/bin/env python3
"""Self-tests of the host-speed benchmark.

    python3 hostbench/test_hostbench.py        (from the repository root)

- Determinism guard: the simulated counts of a fixed number of ops
  repeat exactly across two runs, and between the untraced and the
  traced run (which also checks every op's traced and untraced
  execution against each other).  They also equal the counts recorded
  in expected/sim_counts.json, so a change of simulated results shows
  as a change to that file.
- Output checks: every workload passes at this commit, and a litmus
  run with the CsbFlushDrop bug knob armed reports pass_ratio < 1 and
  exits non-zero.
- Interface: the printed metric names and units are exactly the ones
  BENCHMARK.json declares, and the benchmark fails without a result
  line when the csbsim sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The seed, the ops per workload (few: enough to cross every op shape
# once) and the simulated counts they must produce.
with open(os.path.join(HERE, "expected", "sim_counts.json")) as f:
    EXPECTED = json.load(f)
OPS = EXPECTED["ops"]


def run(workload, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "hostbench", "run.py"),
           "--workload", workload, "--seed", str(EXPECTED["seed"]),
           "--trace", str(trace), "--ops", str(OPS[workload])]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    counts = next((l.split(" ", 1)[1] for l in lines
                   if l.startswith("sim_counts ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1][:1] == "{" \
        else None
    return proc.returncode, result, counts


class HostBenchTest(unittest.TestCase):
    maxDiff = None

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_metrics(self, result, declared):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(got, want)

    def test_workloads_pass_and_repeat(self):
        for w in self.bench["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                code1, res1, counts1 = run(name)
                code2, _, counts2 = run(name)
                code3, res3, counts3 = run(name, trace=1)
                self.assertEqual((code1, code2, code3), (0, 0, 0))
                for res in (res1, res3):
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(res["attempted"], OPS[name])
                self.assertEqual(res1["metrics"]["pass_ratio"]["value"], 1)
                self.assertIsNotNone(counts1)
                self.assertEqual(counts1, counts2)
                self.assertEqual(counts1, counts3)
                self.assertEqual(json.loads(counts1),
                                 EXPECTED["sim_counts"][name],
                                 "simulated counts differ from "
                                 "expected/sim_counts.json")
                self.check_metrics(res1, self.bench["end_to_end"])
                self.check_metrics(res3, self.bench["per_layer"])

    def test_dropped_flushes_fail(self):
        code, res, _ = run("litmus_sweep", extra=["--drop-flush", "1"])
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertLess(res["metrics"]["pass_ratio"]["value"], 1)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "hostbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, res, _ = run("paper_figs", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main()
