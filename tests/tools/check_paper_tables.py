#!/usr/bin/env python3
"""Paper-table goldens (ctest: paper_tables_golden).

Runs each E1-E7 experiment binary with its google-benchmark timings
filtered out and compares every table it prints (header, rule and rows)
with GOLDEN_DIR/<binary name>.txt. The prose notes around the tables are
not compared. A table is a header line, a rule of dashes as long as the
header, and the following lines of that same length (util::Table pads
every cell, so each row is exactly as wide as its rule).

On a mismatch the diff and the binary's full table block are printed;
the block is what the golden file holds, trailing spaces stripped.

Usage: check_paper_tables.py GOLDEN_DIR BINARY...
"""

import difflib
import os
import subprocess
import sys


def table_lines(text):
    lines = text.splitlines()
    out = []
    for i in range(1, len(lines)):
        rule = lines[i]
        if not rule or set(rule) != {"-"} or len(lines[i - 1]) != len(rule):
            continue
        out += [lines[i - 1], rule]
        for row in lines[i + 1:]:
            if len(row) != len(rule):
                break
            out.append(row)
    return [line.rstrip() for line in out]


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    golden_dir, binaries = sys.argv[1], sys.argv[2:]
    failed = 0
    for binary in binaries:
        name = os.path.basename(binary)
        run = subprocess.run([binary, "--benchmark_filter=^$"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=600)
        if run.returncode != 0:
            print(f"{name}: exit {run.returncode}\n{run.stderr}")
            failed += 1
            continue
        actual = table_lines(run.stdout)
        with open(os.path.join(golden_dir, name + ".txt")) as f:
            expected = [line.rstrip() for line in f.read().splitlines()]
        if actual == expected:
            print(f"{name}: {len(actual)} table lines match")
            continue
        failed += 1
        print(f"{name}: tables differ from the golden")
        print("\n".join(difflib.unified_diff(
            expected, actual, "golden", name, lineterm="", n=1)))
        print("\n".join(["--- actual table block:"] + actual))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
