#!/usr/bin/env python3
"""Check an E9 (bench_throughput_matrix) JSON file against its contract.

With no --expect-* option the file must be a full-matrix run with the CI
flag set (--shards=1,2,4,8,adaptive --pin, default threads and
reclaimers): every reclaimer column, the retire-batch-size axis, both fence
schemes, every shard row, the LlscHead and adaptive columns, the placement
and fence context, schema 2 and sane ring latency percentiles.

--expect-reclaimers=a,b checks a --reclaimers-filtered run instead: the
set of reclaimers other than "none" is exactly {a, b}.
--expect-scenarios=a,b checks a --scenarios-filtered run: the set of
scenarios is exactly {a, b}.

Usage:
  tools/check_e9_json.py BENCH_native.json
  tools/check_e9_json.py --expect-reclaimers=hazard,epoch BENCH_reclaim.json
  tools/check_e9_json.py --expect-scenarios=ring_burst,treiber_stack F.json

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/input error.
"""

import argparse
import json
import sys


def full_matrix_checks(doc):
    """Yields (ok, message) for the full-matrix contract."""
    recs = doc["results"]
    yield bool(recs), "empty bench results"
    reclaimers = {r["reclaimer"] for r in recs}
    yield (reclaimers >= {"tagged", "leaky", "hazard", "hazard_cached",
                          "epoch", "epoch_deferred", "none"},
           "missing reclaimer rows")
    yield (reclaimers >= {"epoch_deferred_b1", "epoch_deferred_b4",
                          "epoch_deferred_b16", "epoch_deferred_b64",
                          "epoch_deferred_b256"},
           "missing retire-batch-size axis cells")
    yield ({r["fence"] for r in recs if r["reclaimer"] == "epoch_deferred"}
           == {"seq_cst", "asymmetric"},
           "epoch_deferred must run on both fences")
    yield ({r["shards"] for r in recs if r["scenario"].startswith("sharded_")}
           == {1, 2, 4, 8},
           "missing shard rows")
    yield (any(r["scenario"] == "treiber_stack_llsc" for r in recs),
           "missing LlscHead column")
    yield ({r["fence"] for r in recs} == {"seq_cst", "asymmetric"},
           "missing fence dimension")
    yield ({r["scenario"] for r in recs}
           >= {"adaptive_sharded_stack", "adaptive_sharded_queue"},
           "missing adaptive cells")
    ctx = doc["context"]
    yield (ctx.get("pin") in ("round_robin", "off") and "online_cores" in ctx
           and "asymmetric_fence_scheme" in ctx,
           "missing placement/fence context")
    yield doc.get("schema") == 2, "bench JSON schema must be 2"
    rings = [r for r in recs if r["scenario"].startswith("ring_")]
    yield bool(rings), "missing ring scenario cells"
    yield (all(0 < r["p50_ns"] <= r["p99_ns"] <= r["p999_ns"] for r in rings),
           "ring latency percentiles not sane: %r"
           % [(r["scenario"], r["p50_ns"], r["p99_ns"], r["p999_ns"])
              for r in rings])


def csv_set(text):
    return {tok for tok in text.split(",") if tok}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path", help="E9 JSON file")
    ap.add_argument("--expect-reclaimers", type=csv_set, default=None,
                    metavar="A,B",
                    help="check a --reclaimers-filtered run instead")
    ap.add_argument("--expect-scenarios", type=csv_set, default=None,
                    metavar="A,B",
                    help="check a --scenarios-filtered run instead")
    args = ap.parse_args()

    try:
        with open(args.path) as f:
            doc = json.load(f)
        recs = doc["results"]
    except (OSError, ValueError, KeyError) as e:
        print(f"check_e9_json: cannot read {args.path}: {e}", file=sys.stderr)
        return 2

    checks = []
    if args.expect_reclaimers is not None:
        checks.append(({r["reclaimer"] for r in recs if r["reclaimer"] != "none"}
                       == args.expect_reclaimers,
                       "reclaimer filter broken"))
    if args.expect_scenarios is not None:
        checks.append(({r["scenario"] for r in recs} == args.expect_scenarios,
                       "scenario filter broken"))
    if not checks:
        checks = list(full_matrix_checks(doc))

    failures = [message for ok, message in checks if not ok]
    for message in failures:
        print(f"check_e9_json: {args.path}: {message}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_e9_json: {args.path}: {len(checks)} check(s) passed "
          f"({len(recs)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
