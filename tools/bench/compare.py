#!/usr/bin/env python3
"""Diff two bench JSON runs and flag regressions.

Usage:
    tools/bench/compare.py BASELINE.json CURRENT.json [--threshold=0.10]
                           [--warn-only] [--fail-on-regression]

Supports the bench schemas below, selected by the "bench" field in the
JSON.  A schema is a case key plus one or more gated metrics, each with
its own improvement direction:

  advect_throughput  keyed (kernel, seeding, cache); compares
                     particle_steps_per_sec, higher is better.
  io_overlap         keyed (algorithm, seeding, cache, mode); compares
                     wall_s, lower is better.
  service_load       keyed (scenario, cache); compares p99_latency_s
                     (lower is better) and hit_rate (higher is better).
  scale_sweep        keyed (procs,); compares wall_s and
                     ctrl_msgs_per_rank, both lower is better.
  fault_straggler    keyed (algorithm, mode); compares wall_s, lower is
                     better — the mitigated row regressing past the
                     unmitigated row means straggler re-issue stopped
                     paying for itself.

Baseline rows marked "optional": true (the host-dependent simd cells)
are skipped with a note, not flagged, when the current run lacks them —
a baseline recorded on an AVX2 host must not fail on a host without.

Prints a ratio table (one row per case and metric) and exits non-zero if
any current value regresses more than --threshold (default 10%) past the
baseline.  --warn-only reports but always exits 0 — the CI smoke job
uses it because shared-runner timing is too noisy to gate on.
--fail-on-regression forces the non-zero exit even when --warn-only is
also given (for deterministic benches, like the simulated io_overlap and
service_load runs, that CAN be gated on).
"""

import argparse
import json
import sys

# bench name -> (key fields, [(metric field, higher is better), ...])
SCHEMAS = {
    "advect_throughput": (("kernel", "seeding", "cache"),
                          [("particle_steps_per_sec", True)]),
    "io_overlap": (("algorithm", "seeding", "cache", "mode"),
                   [("wall_s", False)]),
    "service_load": (("scenario", "cache"),
                     [("p99_latency_s", False), ("hit_rate", True)]),
    "scale_sweep": (("procs",),
                    [("wall_s", False), ("ctrl_msgs_per_rank", False)]),
    "fault_straggler": (("algorithm", "mode"),
                        [("wall_s", False)]),
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    bench = doc.get("bench", "advect_throughput")
    if bench not in SCHEMAS:
        sys.exit(f"{path}: unknown bench kind {bench!r}")
    key_fields, metrics, = SCHEMAS[bench]
    out = {}
    optional = set()
    for r in doc.get("results", []):
        # Older advect runs predate the cache-regime axis; treat them as
        # the all-blocks-resident regime so baselines stay comparable.
        # Key fields may be numeric (scale_sweep keys on procs).
        key = tuple(str(r.get(f, "resident" if f == "cache" else None))
                    for f in key_fields)
        out[key] = {metric: r[metric] for metric, _ in metrics}
        if r.get("optional"):
            optional.add(key)
    if not out:
        sys.exit(f"{path}: no results")
    return bench, out, optional


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed fractional regression (default 0.10)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0")
    ap.add_argument("--fail-on-regression", action="store_true",
                    help="exit non-zero on regression even with --warn-only")
    args = ap.parse_args()

    base_bench, base, base_optional = load(args.baseline)
    cur_bench, cur, _ = load(args.current)
    if base_bench != cur_bench:
        sys.exit(f"bench kinds differ: baseline is {base_bench}, "
                 f"current is {cur_bench}")
    _, metrics = SCHEMAS[base_bench]

    key_width = max(len("/".join(k)) for k in list(base) + list(cur))
    metric_width = max(len(m) for m, _ in metrics)
    header = (f"{'case':{key_width}} {'metric':{metric_width}} "
              f"{'baseline':>14} {'current':>14} {'ratio':>7}")
    print(header)
    print("-" * len(header))
    regressions = []
    for key in sorted(base):
        name = "/".join(key)
        if key not in cur:
            if key in base_optional:
                print(f"{name:{key_width}} (optional, absent here: skipped)")
                continue
            regressions.append(f"{name}: missing from current run")
            continue
        for metric, higher_better in metrics:
            b = base[key][metric]
            c = cur[key][metric]
            ratio = c / b if b != 0 else float("inf")
            bad = (ratio < 1.0 - args.threshold if higher_better
                   else ratio > 1.0 + args.threshold)
            flag = ""
            if bad:
                flag = "  <-- REGRESSION"
                worse = (1.0 - ratio if higher_better else ratio - 1.0) * 100
                regressions.append(
                    f"{name}: {metric} {c:.4g} vs baseline {b:.4g} "
                    f"({worse:.1f}% worse)")
            print(f"{name:{key_width}} {metric:{metric_width}} "
                  f"{b:14.4g} {c:14.4g} {ratio:7.3f}{flag}")
    for key in sorted(set(cur) - set(base)):
        for metric, _ in metrics:
            print(f"{'/'.join(key):{key_width}} {metric:{metric_width}} "
                  f"{'(new)':>14} {cur[key][metric]:14.4g}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold * 100:.0f}%:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        if args.fail_on_regression or not args.warn_only:
            sys.exit(1)
        print("(--warn-only: not failing)", file=sys.stderr)
    else:
        print("\nno regressions beyond "
              f"{args.threshold * 100:.0f}% threshold")


if __name__ == "__main__":
    main()
