#!/usr/bin/env python3
"""Self-checks for vosbench. Run from the repository root:

    python3 vosbench/test_vosbench.py

For every workload, on short inputs:
  - two untraced runs of one seed give identical virtual-time results;
  - a traced run gives the same virtual-time results as an untraced one
    (spans cost no virtual time), passes span reconciliation, and its
    host-time difference is printed as the tracing overhead.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["kv_http", "kv_lossy", "fs_mix", "media_mix"]
SEED = 7
SCALE = 0.25

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("vosbench did not build")


def iteration(workload, traced):
    res = run.run_iteration(BINARY, workload, SEED, traced, scale=SCALE)
    if res is None:
        raise AssertionError(f"{workload} iteration failed")
    return res


class VosbenchTest(unittest.TestCase):
    def test_same_seed_same_virtual_results(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = iteration(w, False), iteration(w, False)
                self.assertEqual(a["virt"], b["virt"])
                self.assertEqual(a["layers"], b["layers"])
                self.assertEqual((a["attempted"], a["failed"]), (b["attempted"], b["failed"]))
                self.assertTrue(all(a["checks"].values()), a["checks"])
                self.assertEqual(a["failed"], 0)

    def test_traced_equals_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain, traced = iteration(w, False), iteration(w, True)
                self.assertEqual(plain["virt"], traced["virt"])
                for name, v in plain["layers"].items():
                    self.assertEqual(v, traced["layers"][name], name)
                self.assertTrue(all(traced["checks"].values()), traced["checks"])
                if w != "media_mix":  # media_mix makes no ulib calls of its own
                    self.assertTrue(traced["checks"]["span.reconcile"])
                    self.assertTrue(traced["checks"]["span.syscall_within_ulib"])
                overhead = 100 * (traced["host"]["cpu_s"] / plain["host"]["cpu_s"] - 1)
                print(f"\n  {w}: tracing overhead {overhead:+.1f}% host time", file=sys.stderr)


if __name__ == "__main__":
    unittest.main()
