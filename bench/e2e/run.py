#!/usr/bin/env python3
"""End-to-end benchmark runner for the ABA structures.

Builds bench/e2e (a CMake package of its own) and runs its driver,
e2e_bench, one fresh process per round. Every metric is a median over
rounds; see README.md beside this file for the workloads and metrics.

  run.py --workload W --seed N --seconds S --trace 0|1
      One workload. --trace 0 reports every end-to-end metric of
      BENCHMARK.json, --trace 1 every per-layer metric. The last stdout
      line is one JSON object: correct, attempted, failed, metrics.
  run.py [--seed N] [--seconds S] [--traced] [--out FILE]
      Every workload, rounds interleaved across workloads; prints each
      metric with unit, median, quartiles and sample counts.
  run.py --compare A.json B.json
      Compares two --out result files; refuses if their host facts differ.
  run.py --smoke
      0.2 s per workload plus a short ladder; checks every metric is
      present and every check passes.

--binary runs an already built driver instead of building one.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 on a usage, build or driver error.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = ["pool_churn", "pool_probe", "request_queue_open", "event_flag"]

# Per-layer metrics taken from a workload's rounds rather than the ladder:
# name -> (which round, field path in the driver's round JSON).
ROUND_SOURCES = {
    "structures.cas_failures_per_op": ("traced", "cas_failures_per_op"),
    "reclaim.unreclaimed_end": ("untraced", "unreclaimed_end"),
    "reclaim.free_nodes_end": ("untraced", "free_nodes_end"),
    "bench.gen_late_p99_ns": ("untraced", "gen_late_p99_ns"),
    "bench.backlog_p99": ("untraced", "backlog_p99"),
    "bench.pop_empty_ratio": ("untraced", "pop_empty_ratio"),
    "trace.put.self_ns": ("traced", "trace.put_self_ns"),
    "trace.take.self_ns": ("traced", "trace.take_self_ns"),
    "trace.request.self_ns": ("traced", "trace.request_self_ns"),
}


class BenchError(Exception):
    """A build or driver failure: no result can be reported."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    return json.loads(BENCHMARK.read_text())


# ------------------------------------------------------------------- build

def build(build_dir):
    """Configures and builds the driver; returns its path."""
    if not (ROOT / "src" / "structures" / "treiber_stack.h").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} not found")
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--parallel", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return build_dir / "e2e_bench"


# ------------------------------------------------------------------ driver

def launch(binary, args, timeout):
    """Runs the driver once; returns its JSON object (it prints one line)."""
    cmd = [str(binary), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver timed out: {' '.join(cmd)}") from e
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"driver printed nothing (exit {proc.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise BenchError(f"driver exited {proc.returncode}: {' '.join(cmd)}")
    return result


def round_args(workload, seed, rnd, seconds, warmup):
    args = ["--workload", workload, "--seed", str(seed), "--round", str(rnd),
            "--seconds", f"{seconds:g}", "--warmup", f"{warmup:g}"]
    rate = SPEC["rates_per_s"].get(workload)
    if rate:
        args += ["--rate", f"{rate:g}"]
    return args


def run_rounds(binary, workloads, seed, seconds, round_seconds, warmup):
    """Runs each workload for `seconds`, as fresh-process rounds interleaved
    across workloads (W1 W2 .. W1 W2 ..) so host drift lands on all of
    them. Each round is followed by set-up-only launches of its workload,
    so set-up is sampled across the whole run too. Returns
    {workload: [round, ...]} and {workload: [setup_s, ...]}."""
    rounds = max(1, round(seconds / round_seconds))
    per_round = seconds / rounds
    timeout = per_round + warmup + 120
    extra = SPEC["setup_launches_per_round"]
    results = {w: [] for w in workloads}
    setups = {w: [] for w in workloads}
    for rnd in range(rounds):
        for w in workloads:
            r = launch(binary, round_args(w, seed, rnd, per_round, warmup), timeout)
            results[w].append(r)
            setups[w].append(r["setup_s"])
            for i in range(extra):
                s = launch(binary, round_args(w, seed, rounds + rnd * extra + i, per_round,
                                              warmup) + ["--setup-only"], 60)
                setups[w].append(s["setup_s"])
    return results, setups


def round_ok(r):
    return r["failed"] == 0 and all(r["checks"].values())


def field(obj, path):
    for key in path.split("."):
        obj = obj[key]
    return obj


# ------------------------------------------------------------------ metrics

def stats(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def demoted_names():
    return [d["metric"] for d in SPEC["demoted"]]


def round_metrics(bench, rounds, setups):
    """{name: stats} over one workload's rounds, for every end-to-end metric
    and every end-to-end metric calibration demoted to a diagnostic."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    out = {}
    for name in [m["name"] for m in bench["end_to_end"]] + demoted_names():
        values = setups if name == "setup_s" else [r[name] for r in rounds]
        out[name] = dict(stats(values), unit=units[name])
    return out


def traced_pass(binary, workload, seed, seconds, warmup, build_dir):
    """An untraced round, a traced round and the ladder, sharing `seconds`.
    Returns ({per-layer name: value}, [rounds])."""
    bench = load_benchmark()
    quarter = max(0.2, seconds / 4)
    timeout = quarter + warmup + 120
    plain = launch(binary, round_args(workload, seed, 0, quarter, warmup), timeout)
    span_file = build_dir / "spans" / f"{workload}-seed{seed}.csv"
    span_file.parent.mkdir(parents=True, exist_ok=True)
    traced = launch(binary, round_args(workload, seed, 0, quarter, warmup) +
                    ["--trace-out", str(span_file)], timeout)
    ladder = launch(binary, ["--ladder", "--seconds", f"{max(1.0, seconds / 2):g}"],
                    seconds + 180)
    sources = {"untraced": plain, "traced": traced}
    values = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_ratio":
            values[name] = plain["ops_per_s"] / traced["ops_per_s"]
        elif name in ROUND_SOURCES:
            which, path = ROUND_SOURCES[name]
            values[name] = field(sources[which], path)
        elif name in plain:  # An end-to-end metric demoted to a diagnostic.
            values[name] = plain[name]
        elif name in ladder["metrics"]:
            values[name] = ladder["metrics"][name]
        else:
            raise BenchError(f"per-layer metric {name} is produced by no pass")
    ladder_round = {"failed": 0, "checks": ladder["checks"], "attempted": 1}
    return values, [plain, traced, ladder_round]


def layer_of(name):
    for entry in SPEC["layers"]:
        if name.startswith(entry["prefix"]):
            return entry
    return None


# ------------------------------------------------------------------- output

def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def print_e2e_table(workload, metrics, rounds):
    samples = {"op_p50_ns": "op_samples", "op_p99_ns": "op_samples",
               "lat_p50_ns": "lat_samples", "lat_p99_ns": "lat_samples"}
    demoted = demoted_names()
    over_bound = [o["metric"] for o in SPEC["over_bound"]]
    print(f"== {workload}")
    print(f"  {'metric':<15} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  samples/round")
    for name, s in metrics.items():
        per_round = samples.get(name)
        count = str(min(r[per_round] for r in rounds)) if per_round else "-"
        label = name + ("*" if name in demoted else "+" if name in over_bound else "")
        print(f"  {label:<15} {s['unit']:<6} {fmt(s['median']):>12} {fmt(s['q1']):>12} "
              f"{fmt(s['q3']):>12} {s['n']:>3}  {count}")
    if any(name in demoted for name in metrics):
        print("  * a diagnostic: too noisy on the calibration host to gate (spec.json demoted)")
    if any(name in over_bound for name in metrics):
        print("  + gated, but its run-to-run spread on the calibration host is wider "
              "than its bound (spec.json over_bound)")


def print_layer_table(workload, values):
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"== {workload} (per layer)")
    for name, value in values.items():
        entry = layer_of(name)
        moves = ", ".join(entry["moves"]) if entry and entry["moves"] else "none"
        layer = entry["layer"] if entry else "end-to-end, demoted"
        print(f"  {name:<46} {fmt(value):>12} {units[name]:<9} [{layer}] -> {moves}")


def host_facts(first_round):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "kernel": platform.release(),
            "fence_scheme": first_round["fence_scheme"], "build": first_round["build"],
            "git_sha": sha}


# Host facts that must match for two results to be comparable.
COMPARABLE = ("nproc", "cpu_model", "kernel", "fence_scheme", "build", "rates_per_s")


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    differ = [k for k in COMPARABLE if a["host"].get(k) != b["host"].get(k)]
    if differ:
        for k in differ:
            log(f"refusing to compare: host fact {k} differs: "
                f"{a['host'].get(k)!r} vs {b['host'].get(k)!r}")
        return 2
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        print(f"== {w}")
        for name, sa in a["workloads"][w].items():
            sb = b["workloads"][w].get(name)
            if sb is None:
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            if name not in bounds:
                print(f"  {name:<14} {fmt(sa['median']):>12} -> {fmt(sb['median']):>12} "
                      f"{change:+8.1%}  diagnostic, not gated")
                continue
            m = bounds[name]
            worse = change if m["better"] == "lower" else -change
            spread = (sa["q3"] - sa["q1"]) / sa["median"]
            if spread > m["bound"]:
                verdict = "unresolved (spread above bound)"
            elif worse > m["bound"]:
                verdict = "WORSE"
            else:
                verdict = "within bound"
            print(f"  {name:<14} {fmt(sa['median']):>12} -> {fmt(sb['median']):>12} "
                  f"{change:+8.1%}  bound {m['bound']:.0%}  {verdict}")
    return 0


# --------------------------------------------------------------------- main

def workload_run(opts, binary, build_dir):
    """One workload, in the form BENCHMARK.json's command runs it."""
    bench = load_benchmark()
    warmup = SPEC["warmup_seconds"]
    if opts.trace:
        values, rounds = traced_pass(binary, opts.workload, opts.seed, opts.seconds,
                                     warmup, build_dir)
        print_layer_table(opts.workload, values)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        results, setups = run_rounds(binary, [opts.workload], opts.seed, opts.seconds,
                                     SPEC["round_seconds"], warmup)
        rounds = results[opts.workload]
        table = round_metrics(bench, rounds, setups[opts.workload])
        print_e2e_table(opts.workload, table, rounds)
        names = [m["name"] for m in bench["end_to_end"]]
        if opts.all_metrics:
            names += demoted_names()
        metrics = {k: {"value": table[k]["median"], "unit": table[k]["unit"]} for k in names}
    correct = all(round_ok(r) for r in rounds)
    if not opts.trace:
        bad = [k for k, m in metrics.items() if not (m["value"] and m["value"] > 0)]
        if bad:
            log("end-to-end metrics that are not positive: " + ", ".join(bad))
            correct = False
    for r in rounds:
        for check, ok in r["checks"].items():
            if not ok:
                log(f"check failed: {check}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0 if correct else 1


def summary_run(opts, binary, build_dir):
    """Every workload: the one command that prints every metric."""
    bench = load_benchmark()
    warmup = SPEC["warmup_seconds"]
    results, setups = run_rounds(binary, WORKLOADS, opts.seed, opts.seconds,
                                 SPEC["round_seconds"], warmup)
    host = host_facts(results[WORKLOADS[0]][0])
    host.update(seed=opts.seed, rates_per_s=SPEC["rates_per_s"])
    print("host: " + json.dumps(host))
    out = {"host": host, "workloads": {}, "per_layer": {}}
    correct = True
    for w in WORKLOADS:
        table = round_metrics(bench, results[w], setups[w])
        print_e2e_table(w, table, results[w])
        out["workloads"][w] = {k: dict(v, values=[r[k] for r in results[w]] if k != "setup_s"
                                       else setups[w]) for k, v in table.items()}
        correct = correct and all(round_ok(r) for r in results[w])
    if opts.traced:
        for w in WORKLOADS:
            values, rounds = traced_pass(binary, w, opts.seed, opts.seconds, warmup, build_dir)
            print_layer_table(w, values)
            out["per_layer"][w] = values
            correct = correct and all(round_ok(r) for r in rounds)
    out["correct"] = correct
    if opts.out:
        Path(opts.out).write_text(json.dumps(out, indent=1) + "\n")
    print("correct: " + ("yes" if correct else "NO"))
    return 0 if correct else 1


def smoke_run(binary, build_dir):
    """Short rounds of everything; passes when every metric name is present,
    every check passes and every JSON object parses."""
    bench = load_benchmark()
    s = SPEC["smoke"]
    missing = []
    correct = True
    for w in WORKLOADS:
        r = launch(binary, round_args(w, 1, 0, s["round_seconds"], s["warmup_seconds"]), 60)
        missing += [f"{w}:{m['name']}" for m in bench["end_to_end"] if m["name"] not in r]
        correct = correct and round_ok(r)
        values, rounds = traced_pass(binary, w, 1, s["ladder_seconds"], s["warmup_seconds"],
                                     build_dir)
        missing += [f"{w}:{m['name']}" for m in bench["per_layer"] if m["name"] not in values]
        correct = correct and all(round_ok(x) for x in rounds)
    for name in missing:
        log(f"smoke: missing metric {name}")
    ok = correct and not missing
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=SPEC["default_seed"])
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured seconds per workload (default 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true",
                   help="all-workload mode: also run the per-layer pass")
    p.add_argument("--build", type=Path, default=ROOT / ".bench_build" / "e2e",
                   help="build directory for the benchmark package")
    p.add_argument("--binary", type=Path, help="an already built e2e_bench; skips the build")
    p.add_argument("--out", help="all-workload mode: write the result file here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--all-metrics", action="store_true",
                   help="--trace 0: also report the demoted end-to-end metrics")
    p.add_argument("--smoke", action="store_true")
    opts = p.parse_args()
    if opts.seconds <= 0:
        p.error("--seconds must be positive")
    if opts.compare:
        return compare(*opts.compare)
    try:
        if opts.binary:
            binary = opts.binary.resolve()
            if not binary.is_file():
                raise BenchError(f"no driver at {binary}")
            build_dir = binary.parent
        else:
            build_dir = opts.build.resolve()
            binary = build(build_dir)
        if opts.smoke:
            return smoke_run(binary, build_dir)
        if opts.workload:
            return workload_run(opts, binary, build_dir)
        return summary_run(opts, binary, build_dir)
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
