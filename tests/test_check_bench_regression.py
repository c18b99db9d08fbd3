#!/usr/bin/env python3
"""ctest driver for tools/check_bench_regression.py.

The --bench gate compares items/sec against a baseline recorded on
some host, so the baseline must carry its CPU count and the build
type of the code under test, and that build must not be Debug.  A
debug libbenchmark only warns.  The machine-independent --ratio and
--min-items gates read no baseline context.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "tools", "check_bench_regression.py")

CONTEXT = {"num_cpus": 4, "mouse_build_type": "RelWithDebInfo",
           "library_build_type": "release"}


def report(context, fast=2e9, slow=1e8):
    return {"context": context, "benchmarks": [
        {"name": "BM_Fast", "items_per_second": fast},
        {"name": "BM_Slow", "items_per_second": slow}]}


class BaselineContext(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.new = self.write("new.json", report(CONTEXT))

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, context, *flags):
        base = self.write("BENCH_base.json", report(context))
        return subprocess.run(
            [sys.executable, GATE, self.new, base, *flags],
            capture_output=True, text=True)

    def bench(self, context):
        return self.gate(context, "--bench", "BM_Fast")

    def test_complete_context_passes(self):
        proc = self.bench(CONTEXT)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("warning", proc.stderr)

    def test_missing_cpu_count_is_refused(self):
        ctx = dict(CONTEXT)
        del ctx["num_cpus"]
        proc = self.bench(ctx)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("num_cpus", proc.stderr)

    def test_missing_build_type_is_refused(self):
        for build_type in (None, ""):
            ctx = dict(CONTEXT)
            if build_type is None:
                del ctx["mouse_build_type"]
            else:
                ctx["mouse_build_type"] = build_type
            proc = self.bench(ctx)
            self.assertEqual(proc.returncode, 2)
            self.assertIn("mouse_build_type", proc.stderr)

    def test_missing_context_is_refused(self):
        proc = self.bench(None)
        self.assertEqual(proc.returncode, 2)

    def test_debug_build_is_refused(self):
        proc = self.bench(dict(CONTEXT, mouse_build_type="Debug"))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("Debug", proc.stderr)

    def test_debug_library_only_warns(self):
        proc = self.bench(dict(CONTEXT, library_build_type="debug"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("warning", proc.stderr)
        self.assertIn("library_build_type", proc.stderr)

    def test_ratio_and_floor_ignore_the_context(self):
        proc = self.gate({}, "--ratio", "BM_Fast:BM_Slow",
                         "--min-ratio", "10",
                         "--min-items", "BM_Fast:1e9")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
