#!/usr/bin/env python3
"""Calibrates the end-to-end bounds in BENCHMARK.json from run-to-run noise.

Runs two sets of full benchmark runs (every workload, `run.py --workload W
--trace 0 --all-metrics`, each run with its own seed), alternating which
set goes first, and reports for every end-to-end metric, gated or demoted
earlier, and workload:

  gap     the between-set median gap, signed so positive is worse;
  iqr     each set's quartile distance as a share of its median;
  spread  the same over all runs of both sets.

Let worst be the largest of |gap| and spread over the workloads. A metric
gets three times its worst, rounded up to 5%, and at least 10%. A metric
that would need more than 25% is demoted to a per-layer diagnostic
instead of getting a wider bound; one demoted earlier that now needs at
most 25% is gated again. setup_s is held to the same rule, but it is
never demoted: the benchmark always gates set-up time, so that work moved
out of the timed loop into set-up shows. It gets the largest bound, 25%.
If it needs more, calibrate.py says so and records it in spec.json
(`over_bound`): its median is still compared, though its run-to-run
spread is wider than its bound.

  calibrate.py [--runs 10] [--seconds S] [--seed 100] [--write]

--write stores the bounds and demotions in BENCHMARK.json and spec.json.
Raw results go to .bench_build/e2e/calibrate.json.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
SPEC_PATH = HERE / "spec.json"
WORKLOADS = ["pool_churn", "pool_probe", "request_queue_open", "event_flag"]
FLOOR = 0.10
CEILING = 0.25


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--all-metrics"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"calibrate: run failed (exit {proc.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def share(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    p.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--seed", type=int, default=100, help="first seed; each run takes the next")
    p.add_argument("--write", action="store_true")
    opts = p.parse_args()
    if opts.runs < 2:
        p.error("--runs must be at least 2")
    bench = json.loads(BENCHMARK.read_text())
    spec = json.loads(SPEC_PATH.read_text())
    seconds = opts.seconds or bench["run_seconds"]
    previously_demoted = {d["metric"] for d in spec["demoted"]}
    # Every end-to-end metric, in a fixed order: gated ones, then demoted.
    candidates = bench["end_to_end"] + [m for m in bench["per_layer"]
                                        if m["name"] in previously_demoted]
    metrics = [m["name"] for m in candidates]

    runs = {s: {w: [] for w in WORKLOADS} for s in "AB"}
    seed = opts.seed
    for i in range(opts.runs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            for w in WORKLOADS:
                runs[s][w].append(one_run(w, seed, seconds))
                seed += 1
            print(f"set {s} run {i + 1}/{opts.runs} done", file=sys.stderr, flush=True)

    out_dir = ROOT / ".bench_build" / "e2e"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "calibrate.json").write_text(json.dumps(runs, indent=1) + "\n")

    better = {m["name"]: m["better"] for m in candidates}
    worst_of = {}
    print(f"{'metric':<14} {'workload':<19} {'median A':>12} {'median B':>12} {'gap':>7} "
          f"{'iqr A':>6} {'iqr B':>6} {'spread':>6}")
    for name in metrics:
        worst = 0.0
        for w in WORKLOADS:
            a = [r[name] for r in runs["A"][w]]
            b = [r[name] for r in runs["B"][w]]
            ma, mb = statistics.median(a), statistics.median(b)
            gap = (mb - ma) / ma * (1 if better[name] == "lower" else -1)
            spread = share(a + b)
            worst = max(worst, abs(gap), spread)
            print(f"{name:<14} {w:<19} {ma:>12.6g} {mb:>12.6g} {gap:>+7.1%} "
                  f"{share(a):>6.1%} {share(b):>6.1%} {spread:>6.1%}")
        worst_of[name] = worst

    bounds, demoted, over_bound = {}, [], []
    for name in metrics:
        worst = worst_of[name]
        noisy = 3 * worst > CEILING
        if name == "setup_s":
            bounds[name] = CEILING
            if noisy:
                over_bound.append({"metric": name, "worst_spread": round(worst, 3)})
        elif noisy:
            demoted.append({"metric": name, "worst_spread": round(worst, 3)})
        else:
            bounds[name] = max(FLOOR, math.ceil(3 * worst * 20 - 1e-9) / 20)
    print()
    for name in metrics:
        verdict = f"bound {bounds[name]:.2f}" if name in bounds else "DEMOTE"
        if name in {o["metric"] for o in over_bound}:
            verdict += f", below its need of {3 * worst_of[name]:.0%}"
        print(f"{name:<14} worst {worst_of[name]:6.1%}  -> {verdict}")

    if opts.write:
        base = [{k: m[k] for k in ("name", "unit", "better")} for m in candidates]
        bench["end_to_end"] = [dict(m, bound=bounds[m["name"]]) for m in base
                               if m["name"] in bounds]
        bench["per_layer"] = ([m for m in base if m["name"] not in bounds] +
                              [m for m in bench["per_layer"] if m["name"] not in metrics])
        BENCHMARK.write_text(json.dumps(bench, indent=2) + "\n")
        spec["demoted"] = demoted
        spec["over_bound"] = over_bound
        SPEC_PATH.write_text(json.dumps(spec, indent=2) + "\n")
        print("wrote BENCHMARK.json and spec.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
