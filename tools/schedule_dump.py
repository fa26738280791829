#!/usr/bin/env python3
"""Pretty-print serialized schedule scripts (tests/schedules/*.sched).

A schedule script is the replayable worst case the ScheduleExplorer
(src/sim/schedule_search.h) serializes: the per-process workload plus the
grant sequence (the pid moved at each juncture — invoke-if-idle, else one
shared-memory step). This tool renders the raw token soup as something a
human can debug against: the meta table, the per-process program, and the
grant sequence run-length encoded so the park-and-storm shape is visible
at a glance (a long single-pid run IS the storm; the short prefix granted
to another pid IS the reader being driven to its worst step and parked).

Usage:
    tools/schedule_dump.py tests/schedules/*.sched
"""

import re
import sys
from collections import Counter
from pathlib import Path

# Fixture names the engine registers: read from the registry table in
# src/sim/schedule_fixtures.cpp (kFixtures), so there is no second list to
# keep in sync. An unknown name is a warning rather than an error so the
# dump stays usable on scripts from a newer engine, but a typo in a
# hand-edited script still surfaces. Outside a checkout (no source file)
# the check is off; a source file without a readable table is an error,
# since a moved table would otherwise switch the check off silently.
def known_fixtures():
    source = Path(__file__).resolve().parents[1] / "src/sim/schedule_fixtures.cpp"
    try:
        text = source.read_text(encoding="utf-8")
    except OSError:
        return None
    start = text.find("kFixtures[] = {")
    end = text.find("\n};", start)
    names = re.findall(r'\{"([a-z0-9_]+)",', text[start:end])
    if start < 0 or end < 0 or not names:
        raise ValueError(f"no kFixtures table found in {source}")
    return frozenset(names)


def parse(path):
    script = {"processes": 0, "meta": {}, "ops": [], "grants": []}
    with open(path, encoding="utf-8") as f:
        lines = [ln.split("#", 1)[0].strip() for ln in f]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split() != ["schedule-script", "v1"]:
        raise ValueError(f"{path}: not a schedule-script v1 file")
    for line in lines[1:]:
        tokens = line.split()
        kind, rest = tokens[0], tokens[1:]
        if kind == "processes":
            script["processes"] = int(rest[0])
        elif kind == "meta":
            script["meta"][rest[0]] = " ".join(rest[1:])
        elif kind == "op":
            script["ops"].append((int(rest[0]), rest[1], int(rest[2])))
        elif kind == "grants":
            # "!<pid>" is a crash grant (kill pid at this juncture); encoded
            # internally the way the engine does: -(pid + 1).
            script["grants"].extend(
                -(int(t[1:]) + 1) if t.startswith("!") else int(t)
                for t in rest)
        elif kind == "end":
            break
        else:
            raise ValueError(f"{path}: unknown line kind {kind!r}")
    n = script["processes"]
    for pid, _method, _arg in script["ops"]:
        if not 0 <= pid < n:
            raise ValueError(f"{path}: op pid {pid} out of range for "
                             f"{n} processes")
    for grant in script["grants"]:
        pid = -grant - 1 if grant < 0 else grant
        if not 0 <= pid < n:
            raise ValueError(f"{path}: grant pid {pid} out of range for "
                             f"{n} processes")
    if "search_prelude" in script["meta"]:
        staged = int(script["meta"]["search_prelude"])
        if not 0 <= staged <= len(script["grants"]):
            raise ValueError(
                f"{path}: search_prelude {staged} exceeds the "
                f"{len(script['grants'])}-grant script")
    return script


def run_length(grants):
    runs = []
    for pid in grants:
        if runs and runs[-1][0] == pid:
            runs[-1][1] += 1
        else:
            runs.append([pid, 1])
    return runs


def dump(path, known):
    script = parse(path)
    print(f"== {path}")
    print(f"   processes: {script['processes']}")
    for key in sorted(script["meta"]):
        print(f"   meta {key}: {script['meta'][key]}")

    fixture = script["meta"].get("fixture")
    if fixture is not None and known is not None and fixture not in known:
        print(f"schedule_dump: warning: {path}: unknown fixture "
              f"{fixture!r} (not in the registered fixture list — "
              f"typo, or a newer engine?)", file=sys.stderr)
    if script["meta"].get("expect_verdict") == "violation":
        # A lease-mutant conviction: this schedule is committed BECAUSE it
        # breaks the spec on its (deliberately mutated) fixture.
        print("   conviction: replay must FAIL the spec check "
              "(expect_verdict=violation)")

    by_pid = {}
    for pid, method, arg in script["ops"]:
        by_pid.setdefault(pid, []).append(
            f"{method}({arg})" if method in ("push", "enq", "dwrite", "sc",
                                             "write") else f"{method}()")
    for pid in sorted(by_pid):
        ops = by_pid[pid]
        line = " ".join(ops[:12]) + (f" ... [{len(ops)} ops]" if len(ops) > 12 else "")
        print(f"   p{pid} program: {line}")

    grants = script["grants"]
    steps = [g for g in grants if g >= 0]
    crashes = [-g - 1 for g in grants if g < 0]
    counts = Counter(steps)
    totals = " ".join(f"p{pid}:{n}" for pid, n in sorted(counts.items()))
    crash_note = (
        " crashes: " + " ".join(f"!p{pid}" for pid in crashes) if crashes
        else "")
    print(f"   grants: {len(grants)} total ({totals}){crash_note}")
    def rle(seq):
        return " ".join(
            f"!p{-pid - 1}" if pid < 0 else f"p{pid}x{n}"
            for pid, n in run_length(seq))

    staged = int(script["meta"].get("search_prelude", 0))
    if staged:
        # A staged conviction search: the leading grants were forced (the
        # search prelude), only the suffix was discovered by the explorer.
        print(f"   staged prelude: {rle(grants[:staged])}")
        print(f"   searched suffix: {rle(grants[staged:])}")
    print(f"   grant runs: {rle(grants)}")
    print()


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        known = known_fixtures()
        for path in argv[1:]:
            dump(path, known)
    except (OSError, ValueError, IndexError) as e:
        print(f"schedule_dump: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
