#!/usr/bin/env python3
"""Compare two BENCH_native.json files cell by cell.

--baseline and --fresh are two arbitrary E9 JSON files: the committed
baseline vs a fresh build in CI, but equally two trajectory snapshots from
different machines or commits when diffing by hand.

Each record is keyed by (scenario, platform, orderings, reclaimer, fence,
shards, threads) — the cell identity E9 sweeps (orderings and fence
included so a build with different memory-ordering or fence-scheme options
shows up as added/removed cells rather than as spurious per-cell
regressions) — and the fresh ops_per_sec is compared to the baseline's.
An adaptive_* cell's shards field is the width the facade settled on, a
measurement rather than part of the cell's identity, so those cells are
keyed without it (the width stays in the record). A
cell that lost more than --threshold (default 30%) of its throughput is a
regression; the run fails (exit 1) if any regression is found, unless
--warn-only is set (shared CI runners are noisy and their smoke cells are
measured for milliseconds — there the comparison is a trajectory signal,
not a gate; the nightly workflow runs the same comparison in failing mode
over longer measurements).

Cells are judged only when both sides measured long enough to mean
anything (--min-seconds, default 0.05): drain-limited leaky cells and
sub-hundredth smoke cells are reported informationally but never fail the
run. Added/removed cells (a new scenario, a retired dimension) are listed,
never failed on. The markdown report also carries a geomean-of-ratios
summary per (scenario, reclaimer), the per-group trajectory line that
single-cell noise cannot fake.

Latency cells (schema 2): a record whose p99_ns is nonzero carries per-op
latency percentiles (E9's ring scenarios always do). When BOTH sides of a
cell carry a nonzero p99_ns, a
fresh p99 that grew by more than --latency-threshold (default 50% — tail
latency on shared runners is substantially noisier than mean throughput,
so the latency gate defaults looser than --threshold and is tuned
independently) is a latency regression and gates exactly like a
throughput loss. Schema-1 baselines (no percentile fields) are accepted
read-only: their cells simply never enter the p99 gate, so the trajectory
can roll forward without rewriting history.

Usage:
  tools/bench_compare.py --baseline BENCH_native.json \
      --fresh build/BENCH_native.json [--threshold 0.30] [--warn-only] \
      [--report build/bench_compare.md]

Exit codes: 0 ok (or --warn-only), 1 regression found, 2 usage/input error.
"""

import argparse
import contextlib
import json
import math
import signal
import sys

# Behave like a normal CLI filter when piped into head & co.
with contextlib.suppress(AttributeError, ValueError):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def cell_key(r):
    # None stands for "any width": an adaptive cell's shards is measured.
    adaptive = r["scenario"].startswith("adaptive_")
    return (
        r["scenario"],
        r["platform"],
        r.get("orderings", ""),
        r.get("reclaimer", "none"),
        r.get("fence", "seq_cst"),
        None if adaptive else int(r.get("shards", 1)),
        int(r["threads"]),
    )


def load_records(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    records = doc.get("results", [])
    if not records:
        print(f"bench_compare: {path} has no results", file=sys.stderr)
        sys.exit(2)
    out = {}
    for r in records:
        key = cell_key(r)
        if key in out:
            print(f"bench_compare: duplicate cell {key} in {path}",
                  file=sys.stderr)
            sys.exit(2)
        out[key] = r
    return out, doc.get("context", {}), int(doc.get("schema", 1))


def fmt_key(key, base, fresh):
    scenario, platform, orderings, reclaimer, fence, shards, threads = key
    if shards is None:  # Adaptive: the settled widths, baseline->fresh.
        shards = "->".join(str(side[key].get("shards", "?"))
                           for side in (base, fresh) if key in side)
    return (f"{scenario}/{platform}/{orderings}/{reclaimer}/{fence}"
            f"/shards={shards}/threads={threads}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="committed BENCH_native.json")
    ap.add_argument("--fresh", required=True, help="freshly measured BENCH_native.json")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="fractional throughput loss that counts as a regression")
    ap.add_argument("--latency-threshold", type=float, default=0.50,
                    help="fractional p99 growth that counts as a latency "
                         "regression (looser than --threshold by default: "
                         "tail latency is noisier than mean throughput)")
    ap.add_argument("--min-seconds", type=float, default=0.05,
                    help="ignore cells measured for less than this on either side")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but always exit 0")
    ap.add_argument("--report", default=None,
                    help="write a markdown report to this path")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="write the comparison as machine-readable JSON "
                         "(dashboards, trend jobs); '-' for stdout")
    args = ap.parse_args()

    base, base_ctx, base_schema = load_records(args.baseline)
    fresh, fresh_ctx, fresh_schema = load_records(args.fresh)

    def label(key):
        return fmt_key(key, base, fresh)

    regressions = []  # (key, base_rate, fresh_rate, delta)
    improvements = []
    informational = []  # too short to judge
    latency_regressions = []  # (key, base_p99_ns, fresh_p99_ns, delta)
    latency_compared = 0
    ratios_by_group = {}  # (scenario, reclaimer) -> [fresh/base, ...]
    compared = 0
    for key in sorted(base.keys() & fresh.keys()):
        b, f = base[key], fresh[key]
        if b["ops_per_sec"] <= 0:
            continue
        compared += 1
        ratio = f["ops_per_sec"] / b["ops_per_sec"]
        delta = ratio - 1.0
        row = (key, b["ops_per_sec"], f["ops_per_sec"], delta)
        if ratio > 0:
            ratios_by_group.setdefault((key[0], key[3]), []).append(ratio)
        too_short = (
            min(b.get("seconds", 0), f.get("seconds", 0)) < args.min_seconds)
        if too_short:
            informational.append(row)
        elif delta < -args.threshold:
            regressions.append(row)
        elif delta > args.threshold:
            improvements.append(row)
        # The p99 gate: only when both sides actually recorded latency
        # (schema-1 baselines never did — their cells stay throughput-only).
        b_p99, f_p99 = b.get("p99_ns", 0), f.get("p99_ns", 0)
        if b_p99 > 0 and f_p99 > 0 and not too_short:
            latency_compared += 1
            lat_delta = f_p99 / b_p99 - 1.0
            if lat_delta > args.latency_threshold:
                latency_regressions.append((key, b_p99, f_p99, lat_delta))
    added = sorted(fresh.keys() - base.keys())
    removed = sorted(base.keys() - fresh.keys())

    lines = []
    lines.append(f"# Bench comparison: {args.fresh} vs baseline {args.baseline}")
    lines.append("")
    lines.append(f"- cells compared: {compared} "
                 f"(threshold {args.threshold:.0%}, min seconds {args.min_seconds})")
    lines.append(f"- schema: baseline {base_schema}, fresh {fresh_schema}; "
                 f"latency (p99) cells gated: {latency_compared} "
                 f"(latency threshold {args.latency_threshold:.0%})")
    lines.append(f"- baseline host concurrency: "
                 f"{base_ctx.get('hardware_concurrency', '?')}, "
                 f"fresh: {fresh_ctx.get('hardware_concurrency', '?')}")
    lines.append(f"- regressions: {len(regressions)} throughput + "
                 f"{len(latency_regressions)} latency, "
                 f"improvements: {len(improvements)}, "
                 f"too-short-to-judge: {len(informational)}, "
                 f"added: {len(added)}, removed: {len(removed)}")
    lines.append("")

    def table(title, rows):
        if not rows:
            return
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| cell | baseline ops/s | fresh ops/s | delta |")
        lines.append("|---|---:|---:|---:|")
        for key, b, f, d in rows:
            lines.append(f"| {label(key)} | {b:,.0f} | {f:,.0f} | {d:+.1%} |")
        lines.append("")

    # Geomean of fresh/baseline ratios per (scenario, reclaimer): the
    # per-group trajectory summary. A geomean treats a 2x gain and a 0.5x
    # loss as cancelling, so it is the honest "did this family move"
    # number, robust to the single-cell noise the per-cell gate ignores.
    if ratios_by_group:
        lines.append("## Geomean fresh/baseline by (scenario, reclaimer)")
        lines.append("")
        lines.append("| scenario | reclaimer | cells | geomean |")
        lines.append("|---|---|---:|---:|")
        for (scenario, reclaimer), ratios in sorted(ratios_by_group.items()):
            geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
            lines.append(f"| {scenario} | {reclaimer} | {len(ratios)} "
                         f"| {geomean:.3f}x |")
        lines.append("")

    table("Regressions", regressions)
    if latency_regressions:
        lines.append("## Latency regressions (p99)")
        lines.append("")
        lines.append("| cell | baseline p99 ns | fresh p99 ns | delta |")
        lines.append("|---|---:|---:|---:|")
        for key, b, f, d in latency_regressions:
            lines.append(f"| {label(key)} | {b:,.0f} | {f:,.0f} | {d:+.1%} |")
        lines.append("")
    table("Improvements (>threshold)", improvements)
    # Cells too short to gate on still carry the trajectory signal — render
    # the ones whose delta crossed the threshold so a smoke-mode report
    # (milliseconds per cell) is never empty of per-cell data.
    table("Beyond threshold but too short to judge (informational)",
          [r for r in informational if abs(r[3]) > args.threshold])
    if added:
        lines.append("## Added cells")
        lines.append("")
        lines.extend(f"- {label(k)}" for k in added)
        lines.append("")
    if removed:
        lines.append("## Removed cells")
        lines.append("")
        lines.extend(f"- {label(k)}" for k in removed)
        lines.append("")

    if args.json:
        def row_obj(row):
            key, b, f, d = row
            return {"cell": label(key), "baseline_ops_per_sec": b,
                    "fresh_ops_per_sec": f, "delta": d}
        doc = {
            "baseline": args.baseline,
            "fresh": args.fresh,
            "threshold": args.threshold,
            "latency_threshold": args.latency_threshold,
            "min_seconds": args.min_seconds,
            "cells_compared": compared,
            "latency_cells_compared": latency_compared,
            "latency_regressions": [
                {"cell": label(key), "baseline_p99_ns": b,
                 "fresh_p99_ns": f, "delta": d}
                for key, b, f, d in latency_regressions],
            "regressions": [row_obj(r) for r in regressions],
            "improvements": [row_obj(r) for r in improvements],
            "informational": [row_obj(r) for r in informational],
            "added": [label(k) for k in added],
            "removed": [label(k) for k in removed],
            "geomean_by_group": [
                {"scenario": scenario, "reclaimer": reclaimer,
                 "cells": len(ratios),
                 "geomean": math.exp(
                     sum(math.log(r) for r in ratios) / len(ratios))}
                for (scenario, reclaimer), ratios
                in sorted(ratios_by_group.items())],
        }
        payload = json.dumps(doc, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as f:
                    f.write(payload + "\n")
            except OSError as e:
                print(f"bench_compare: cannot write {args.json}: {e}",
                      file=sys.stderr)
                sys.exit(2)

    report = "\n".join(lines)
    print(report)
    if args.report:
        try:
            with open(args.report, "w") as f:
                f.write(report + "\n")
        except OSError as e:
            print(f"bench_compare: cannot write {args.report}: {e}", file=sys.stderr)
            sys.exit(2)

    if regressions or latency_regressions:
        verdict = (f"bench_compare: {len(regressions)} throughput cell(s) "
                   f"regressed more than {args.threshold:.0%} and "
                   f"{len(latency_regressions)} latency (p99) cell(s) "
                   f"more than {args.latency_threshold:.0%}")
        if args.warn_only:
            print(f"{verdict} (warn-only mode, not failing)")
            return 0
        print(verdict, file=sys.stderr)
        return 1
    print("bench_compare: no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
