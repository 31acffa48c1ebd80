"""Tests of compare.py: records from different builds are never compared."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

COMPARE = Path(__file__).resolve().parent.parent / "compare.py"


def record(value, build_type="Release", nproc=4):
    return {
        "workload": "fig1_sweep", "trace": 0,
        "provenance": {"build_type": build_type, "compiler": "GNU 12.2.0",
                       "cxx_flags": "-O3 -DNDEBUG", "cpu_model": "cpu",
                       "nproc": nproc},
        "result": {"metrics": {"serial_wall_s": {"value": value,
                                                 "unit": "s"}}},
    }


class CompareTest(unittest.TestCase):
    def run_compare(self, base, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, r in enumerate(base + new):
                path = Path(tmp) / f"r{i}.json"
                path.write_text(json.dumps(r))
                paths.append(str(path))
            args = paths[:len(base)] + ["--"] + paths[len(base):]
            return subprocess.run([sys.executable, str(COMPARE), *args],
                                  capture_output=True, text=True)

    def test_same_provenance_within_bound(self):
        proc = self.run_compare([record(2.0), record(2.2)], [record(2.1)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("serial_wall_s", proc.stdout)

    def test_regression_beyond_bound(self):
        proc = self.run_compare([record(1.0)], [record(2.0)])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSED", proc.stdout)

    def test_refuses_different_build_types(self):
        proc = self.run_compare([record(2.0)],
                                [record(1.0, build_type="RelWithDebInfo")])
        self.assertEqual(proc.returncode, 2)
        self.assertIn("provenance differs", proc.stderr)

    def test_refuses_different_core_counts(self):
        proc = self.run_compare([record(2.0)], [record(2.0, nproc=1)])
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
