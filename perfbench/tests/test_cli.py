#!/usr/bin/env python3
"""Command-line, output and lint tests of the benchmark.

    python3 perfbench/tests/test_cli.py --binary .bench_build/perfbench \\
        --cache .bench_build/cache

Checks that a bad flag exits 2 with a message (run.py and the measuring
program), that a short run's last output line parses and names exactly the
metrics BENCHMARK.json declares, and that tools/flashhp_lint.py
--check-runtime is clean on the benchmark's sources (an explicit
rt::Runtime, no process_default() for simulation state).
"""

import argparse
import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
ARGS = None


def run(cmd, **kw):
    return subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, check=False, **kw)


class BadFlags(unittest.TestCase):
    def test_run_py_bad_flag_exits_2(self):
        r = run([sys.executable, BENCH / "run.py", "--workload", "sedov3d",
                 "--seed", "1", "--seconds", "1", "--trace", "0", "--bogus"])
        self.assertEqual(r.returncode, 2)
        self.assertIn("--bogus", r.stderr)
        self.assertEqual(r.stdout, "")

    def test_run_py_bad_workload_exits_2(self):
        r = run([sys.executable, BENCH / "run.py", "--workload", "nope",
                 "--seed", "1", "--seconds", "1", "--trace", "0"])
        self.assertEqual(r.returncode, 2)
        self.assertIn("nope", r.stderr)

    def test_binary_bad_flag_exits_2(self):
        r = run([ARGS.binary, "run", "--workload", "sedov3d", "--seed", "1",
                 "--seconds", "1", "--trace", "0", "--cache", ARGS.cache,
                 "--bogus", "1"])
        self.assertEqual(r.returncode, 2)
        self.assertIn("unknown flag --bogus", r.stderr)
        self.assertEqual(r.stdout, "")

    def test_binary_bad_value_exits_2(self):
        r = run([ARGS.binary, "run", "--workload", "sedov3d", "--seed", "x",
                 "--seconds", "1", "--trace", "0", "--cache", ARGS.cache])
        self.assertEqual(r.returncode, 2)
        self.assertIn("--seed", r.stderr)


class OutputParses(unittest.TestCase):
    """A one-second svc_mixed run (the cheapest workload, which needs only
    the small Helm table) in both modes."""

    def check_run(self, trace, key):
        r = run([ARGS.binary, "run", "--workload", "svc_mixed", "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--cache",
                 ARGS.cache])
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec[key]}
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(reported, declared)
        for name, metric in result["metrics"].items():
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertIsInstance(metric["value"], (int, float))
        # Every timing line: median, a tail percentile or none, and n.
        for line in lines[:-1]:
            if line.startswith("timing "):
                self.assertRegex(line, r"median=\S+ .*n=\d+$")
        return result

    def test_untraced_output(self):
        result = self.check_run(0, "end_to_end")
        for name in ("setup_s", "sims_per_s", "model_cycles_per_step"):
            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced_output(self):
        self.check_run(1, "per_layer")


class RuntimeLint(unittest.TestCase):
    """--check-runtime scans <root>/bench; lint the benchmark's sources by
    placing them there in a scratch root."""

    def lint(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src").mkdir()
            (root / "bench").mkdir()
            for f in files:
                shutil.copy(f, root / "bench" / f.name)
            return run([sys.executable, REPO / "tools" / "flashhp_lint.py",
                        "--root", root, "--check-runtime"])

    def test_sources_are_clean(self):
        sources = sorted((BENCH / "src").glob("*.cpp"))
        self.assertTrue(sources)
        r = self.lint(sources)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_harness_catches_a_violation(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = pathlib.Path(tmp) / "bad.cpp"
            bad.write_text("void f() { fhp::sim::SedovSetup s(p, q); }\n")
            r = self.lint([bad])
        self.assertEqual(r.returncode, 1)

    def test_no_process_default_state(self):
        pattern = re.compile(r"process_default|PerfContext\s*::\s*global|"
                             r"global_page_pool|\bdefault_layout\s*\(")
        for f in sorted((BENCH / "src").glob("*.[ch]pp")):
            self.assertIsNone(pattern.search(f.read_text()), f.name)


def main():
    global ARGS
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True, type=pathlib.Path)
    parser.add_argument("--cache", required=True, type=pathlib.Path)
    ARGS, rest = parser.parse_known_args()
    ARGS.cache.mkdir(parents=True, exist_ok=True)
    unittest.main(argv=[sys.argv[0]] + rest)


if __name__ == "__main__":
    main()
