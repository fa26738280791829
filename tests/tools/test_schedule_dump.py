#!/usr/bin/env python3
"""Smoke tests for tools/schedule_dump.py (ctest: tools.schedule_dump).

Drives the pretty-printer as a subprocess over edge-case scripts the corpus
itself never commits: an empty schedule, a crash-grant-only schedule, and
the malformed/out-of-range inputs the validator must reject with a clean
exit code instead of a traceback.
"""

import glob
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
TOOL = os.path.join(REPO, "tools", "schedule_dump.py")


def run_tool(*paths, tool=TOOL):
    return subprocess.run([sys.executable, tool, *paths],
                          capture_output=True, text=True)


class ScheduleDumpTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, text):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def test_no_args_prints_usage_and_exits_2(self):
        result = run_tool()
        self.assertEqual(result.returncode, 2)
        self.assertIn("Usage", result.stderr)

    def test_empty_schedule_dumps_cleanly(self):
        # A legal script with no ops and no grants — the searcher never
        # emits one, but replay tooling must not choke on it.
        path = self.write("empty.sched",
                          "schedule-script v1\nprocesses 2\ngrants\nend\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("processes: 2", result.stdout)
        self.assertIn("grants: 0 total", result.stdout)

    def test_crash_grant_only_schedule(self):
        # Every grant is a kill: no steps, two crash victims. The dump must
        # decode the !pid form and render both the totals note and the RLE.
        path = self.write("crash.sched",
                          "schedule-script v1\n"
                          "processes 3\n"
                          "meta crashes 2\n"
                          "grants !0 !2\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("crashes: !p0 !p2", result.stdout)
        self.assertIn("!p0 !p2", result.stdout.splitlines()[-2])

    def test_comments_and_meta_survive(self):
        path = self.write("meta.sched",
                          "# leading comment\n"
                          "schedule-script v1\n"
                          "processes 2\n"
                          "meta fixture stack_epoch\n"
                          "op 0 push 7\n"
                          "op 1 pop 0\n"
                          "grants 0 0 1 0\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("meta fixture: stack_epoch", result.stdout)
        self.assertIn("push(7)", result.stdout)
        self.assertIn("p0x2 p1x1 p0x1", result.stdout)

    def test_leased_fixture_renders_without_warning(self):
        path = self.write("leased.sched",
                          "schedule-script v1\n"
                          "processes 2\n"
                          "meta fixture stack_leased_epoch_batched\n"
                          "op 0 push 7\n"
                          "grants 0 0\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("meta fixture: stack_leased_epoch_batched",
                      result.stdout)
        self.assertNotIn("warning", result.stderr)

    def test_unknown_fixture_warns_but_dumps(self):
        # A typo'd (or future-engine) fixture name must not kill the dump —
        # the grants are still worth rendering — but it must be called out.
        path = self.write("typo.sched",
                          "schedule-script v1\n"
                          "processes 2\n"
                          "meta fixture stack_leased_hazrd\n"
                          "grants 0 1\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("grant runs: p0x1 p1x1", result.stdout)
        self.assertIn("warning", result.stderr)
        self.assertIn("stack_leased_hazrd", result.stderr)

    def test_committed_corpus_dumps_without_warnings(self):
        # Every committed script names a registered fixture, so the dump
        # of the whole corpus writes nothing to stderr.
        paths = sorted(glob.glob(os.path.join(REPO, "tests", "schedules",
                                              "*.sched")))
        self.assertTrue(paths)
        result = run_tool(*paths)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stderr, "")

    def test_fixtures_source_without_table_is_an_error(self):
        # A checkout whose fixtures file has lost its kFixtures table must
        # fail loudly instead of switching the unknown-name check off.
        root = self._dir.name
        os.makedirs(os.path.join(root, "tools"))
        os.makedirs(os.path.join(root, "src", "sim"))
        tool = shutil.copy(TOOL, os.path.join(root, "tools"))
        self.write(os.path.join("src", "sim", "schedule_fixtures.cpp"),
                   "// the table moved elsewhere\n")
        path = self.write("meta.sched",
                          "schedule-script v1\nprocesses 2\nend\n")
        result = run_tool(path, tool=tool)
        self.assertEqual(result.returncode, 1)
        self.assertIn("no kFixtures table", result.stderr)

    def test_conviction_script_renders_prelude_and_verdict(self):
        # A lease-mutant conviction (PR 10): the expect_verdict line must
        # be surfaced and the staged prelude split out of the grant runs so
        # the forced prefix is distinguishable from the searched suffix.
        path = self.write("convict.sched",
                          "schedule-script v1\n"
                          "processes 3\n"
                          "meta fixture stack_leased_mutant_no_restamp\n"
                          "meta expect_verdict violation\n"
                          "meta search_prelude 4\n"
                          "grants 0 0 0 2 1 !1 0 2\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("conviction: replay must FAIL", result.stdout)
        self.assertIn("staged prelude: p0x3 p2x1", result.stdout)
        self.assertIn("searched suffix: p1x1 !p1 p0x1 p2x1", result.stdout)
        self.assertNotIn("warning", result.stderr)

    def test_prelude_longer_than_script_is_rejected(self):
        path = self.write("badprelude.sched",
                          "schedule-script v1\n"
                          "processes 2\n"
                          "meta search_prelude 9\n"
                          "grants 0 1\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 1)
        self.assertIn("search_prelude 9 exceeds", result.stderr)

    def test_wrong_header_fails_cleanly(self):
        path = self.write("bad.sched", "not-a-schedule\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 1)
        self.assertIn("not a schedule-script v1 file", result.stderr)

    def test_grant_pid_out_of_range_is_rejected(self):
        path = self.write("range.sched",
                          "schedule-script v1\n"
                          "processes 2\n"
                          "grants 0 5\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 1)
        self.assertIn("grant pid 5 out of range", result.stderr)

    def test_crash_victim_out_of_range_is_rejected(self):
        path = self.write("crashrange.sched",
                          "schedule-script v1\n"
                          "processes 2\n"
                          "grants !3\n"
                          "end\n")
        result = run_tool(path)
        self.assertEqual(result.returncode, 1)
        self.assertIn("grant pid 3 out of range", result.stderr)


if __name__ == "__main__":
    unittest.main()
