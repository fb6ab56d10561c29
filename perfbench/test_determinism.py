#!/usr/bin/env python3
"""Determinism test for the benchmark's counters.

  python3 perfbench/test_determinism.py

For every workload, two gridbench runs with the same seed must report
identical deterministic counters, and a run with another seed must
change them. The counters are read over each workload's fixed counter
window, so they do not depend on run length or machine speed.

Every batch holds a fixed mix of op kinds, so on local_fresh the
request and parse counts do not depend on the seed at all (each driver
sends the same requests whatever host or projection it is asked for);
there the seed shows in the bytes moved, so the changed-seed half of
the test also compares net_bytes_per_op.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNTERS = [
    "net_requests_per_op",
    "wan_bytes_per_op",
    "history_bytes_per_sample",
    "sql.parse_count",
    "global.fragment_rows_per_op",
]


def counters(binary, workload, seed):
    code, _, result = run.run_binary(binary, workload, seed, 1.0, False)
    assert code == 0 and result["correct"], "%s seed %d failed" % (workload, seed)
    return {name: result["metrics"][name]["value"] for name in COUNTERS + ["net_bytes_per_op"]}


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check(self, workload):
        first = counters(self.binary, workload, 11)
        again = counters(self.binary, workload, 11)
        other = counters(self.binary, workload, 12)
        for name in COUNTERS:
            self.assertEqual(first[name], again[name], "same seed, different " + name)
        self.assertNotEqual(first, other, "another seed left every counter unchanged")

    def test_local_fresh(self):
        self.check("local_fresh")

    def test_monitor_ingest(self):
        self.check("monitor_ingest")

    def test_federated_grid(self):
        self.check("federated_grid")


if __name__ == "__main__":
    unittest.main()
