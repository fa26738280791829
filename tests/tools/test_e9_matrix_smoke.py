#!/usr/bin/env python3
"""E9 smoke (ctest: e9_matrix_smoke): run bench_throughput_matrix at
0.01 s per cell with the CI flag sets and check each JSON file with
tools/check_e9_json.py.

Three runs: the full matrix with the CI flags, a --reclaimers filter and a
--scenarios filter. The last pins the filter's ring shorthand ("burst"
selects "ring_burst").

Usage: test_e9_matrix_smoke.py PATH/TO/bench_throughput_matrix
"""

import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "tools", "check_e9_json.py")

RUNS = [
    # (output name, matrix flags, checker flags)
    ("full.json", ["--shards=1,2,4,8,adaptive", "--pin"], []),
    ("reclaim.json", ["--threads=2", "--reclaimers=hazard,epoch"],
     ["--expect-reclaimers=hazard,epoch"]),
    ("scenarios.json", ["--scenarios=burst,treiber_stack", "--reclaimers=tagged"],
     ["--expect-scenarios=ring_burst,treiber_stack"]),
]


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags, check_flags in RUNS:
            out = os.path.join(tmp, name)
            cmd = [binary, "--benchmark_min_time=0.01", *flags, f"--out={out}"]
            run = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print(f"FAIL: {' '.join(cmd)} exited {run.returncode}\n"
                      f"{run.stderr}", file=sys.stderr)
                return 1
            check = subprocess.run(
                [sys.executable, CHECKER, *check_flags, out])
            if check.returncode != 0:
                print(f"FAIL: {' '.join(cmd)} broke the E9 contract",
                      file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
