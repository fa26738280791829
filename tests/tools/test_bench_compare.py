#!/usr/bin/env python3
"""Tests for tools/bench_compare.py (ctest: tools.bench_compare).

Drives the comparer as a subprocess over small hand-written E9 documents:
the cell keying (an adaptive cell's settled width is not part of its
identity), the duplicate-key input error, the throughput gate and the
schema-1 exemption from the p99 gate.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir, "tools", "bench_compare.py")


def record(scenario, ops_per_sec, shards=1, threads=2, **extra):
    rec = {"scenario": scenario, "platform": "fast",
           "orderings": "acquire_release", "reclaimer": "tagged",
           "fence": "seq_cst", "threads": threads, "shards": shards,
           "ops": 1000, "seconds": 0.2, "ops_per_sec": ops_per_sec}
    rec.update(extra)
    return rec


def doc(*records, schema=2):
    return {"bench": "native_throughput_matrix", "schema": schema,
            "context": {"hardware_concurrency": "4"},
            "results": list(records)}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, content):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(content, f)
        return path

    def compare(self, base, fresh, *flags):
        base_path = self.write("base.json", base)
        fresh_path = self.write("fresh.json", fresh)
        json_path = os.path.join(self._dir.name, "cmp.json")
        result = subprocess.run(
            [sys.executable, TOOL, "--baseline", base_path, "--fresh",
             fresh_path, "--json", json_path, *flags],
            capture_output=True, text=True)
        summary = None
        if os.path.exists(json_path):
            with open(json_path, encoding="utf-8") as f:
                summary = json.load(f)
        return result, summary

    def test_adaptive_width_is_not_part_of_the_key(self):
        # The same adaptive cell settled on different widths in two runs:
        # one compared cell, nothing added or removed.
        base = doc(record("adaptive_sharded_stack", 1e6, shards=2),
                   record("treiber_stack", 1e6))
        fresh = doc(record("adaptive_sharded_stack", 2e6, shards=4),
                    record("treiber_stack", 1e6))
        result, summary = self.compare(base, fresh)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(summary["cells_compared"], 2)
        self.assertEqual(summary["added"], [])
        self.assertEqual(summary["removed"], [])
        # The widths stay in the report (the 2x gain lists the cell).
        self.assertEqual(len(summary["improvements"]), 1)
        self.assertIn("/shards=2->4/", summary["improvements"][0]["cell"])
        self.assertIn("/shards=2->4/", result.stdout)

    def test_sharded_width_is_still_part_of_the_key(self):
        base = doc(record("sharded_treiber_stack", 1e6, shards=2))
        fresh = doc(record("sharded_treiber_stack", 1e6, shards=4))
        result, summary = self.compare(base, fresh)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(summary["cells_compared"], 0)
        self.assertEqual(len(summary["added"]), 1)
        self.assertEqual(len(summary["removed"]), 1)

    def test_duplicate_key_exits_2(self):
        # Two adaptive records that differ only in width are one cell twice.
        dup = doc(record("adaptive_sharded_queue", 1e6, shards=1),
                  record("adaptive_sharded_queue", 1e6, shards=8))
        result, _ = self.compare(doc(record("treiber_stack", 1e6)), dup)
        self.assertEqual(result.returncode, 2)
        self.assertIn("duplicate cell", result.stderr)

    def test_throughput_drop_beyond_threshold_exits_1(self):
        base = doc(record("treiber_stack", 1e6))
        fresh = doc(record("treiber_stack", 0.6e6))  # -40% > 30%.
        result, summary = self.compare(base, fresh)
        self.assertEqual(result.returncode, 1)
        self.assertEqual(len(summary["regressions"]), 1)
        warned, _ = self.compare(base, fresh, "--warn-only")
        self.assertEqual(warned.returncode, 0)

    def test_schema1_baseline_stays_out_of_the_p99_gate(self):
        # A schema-1 baseline has no percentile fields: a fresh p99 cannot
        # regress against it, and nothing is latency-gated.
        base = doc(record("ring_mpmc", 1e6), schema=1)
        fresh = doc(record("ring_mpmc", 1e6, p50_ns=100.0, p99_ns=1e6,
                           p999_ns=2e6))
        result, summary = self.compare(base, fresh)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(summary["latency_cells_compared"], 0)
        self.assertEqual(summary["latency_regressions"], [])
        # The same fresh cell against a schema-2 baseline that recorded a
        # 1000x smaller p99 is a latency regression.
        base2 = doc(record("ring_mpmc", 1e6, p50_ns=100.0, p99_ns=1e3,
                           p999_ns=2e3))
        gated, summary = self.compare(base2, fresh)
        self.assertEqual(gated.returncode, 1)
        self.assertEqual(summary["latency_cells_compared"], 1)
        self.assertEqual(len(summary["latency_regressions"]), 1)


if __name__ == "__main__":
    unittest.main()
