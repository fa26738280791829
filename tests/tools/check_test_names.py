#!/usr/bin/env python3
"""Stable test names (ctest: tools.test_names).

Lists the gtest binary's tests and fails if any value-parameterized case
prints its parameter as a byte dump ("24-byte object <02-00 ...>"). gtest
falls back to that dump for a struct with no PrintTo, and ctest puts the
printed parameter into the test's name, so the name then depends on the
struct's padding bytes, which nothing initialises: the same test gets a
different name in another build. Give the struct a PrintTo.

Usage: check_test_names.py GTEST_BINARY
"""

import re
import subprocess
import sys

BYTE_DUMP = re.compile(r"\d+-byte object <")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    listing = subprocess.run([sys.argv[1], "--gtest_list_tests"],
                             capture_output=True, text=True)
    if listing.returncode != 0:
        print(listing.stderr, file=sys.stderr)
        return 1
    suite = ""
    dumped = []
    for line in listing.stdout.splitlines():
        if not line.startswith(" "):
            suite = line.strip()
        elif BYTE_DUMP.search(line):
            dumped.append(suite + line.strip())
    for name in dumped:
        print("parameter printed as bytes:", name)
    if dumped:
        print(f"{len(dumped)} test(s) print a parameter as a byte dump",
              file=sys.stderr)
        return 1
    print("no parameter is printed as a byte dump")
    return 0


if __name__ == "__main__":
    sys.exit(main())
