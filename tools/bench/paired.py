#!/usr/bin/env python3
"""Paired perfbench comparison of two commits, with a verdict per metric.

    python3 tools/bench/paired.py --base REV --head REV \\
        --workload scale_16k --metric setup_s --pairs 10 --seed 1 \\
        --seconds 10 --scratch DIR --out result.json [--append]

Checks both commits out as git worktrees under DIR, builds perfbench in
each, then runs `python3 perfbench/run.py` on them in interleaved pairs:
pair k runs base first when k is even and head first when it is odd, so
slow drift of the machine lands on both sides alike.  The result is one
JSON object: every pair's metrics, and per workload and metric each
side's median and quartiles, the pairs head won and lost, and a verdict:

  met         head won at least 9 in 10 pairs and the medians differ, in
              head's favour, by more than base's interquartile range;
  regressed   the same rule with base and head swapped;
  unresolved  anything else.

With --append, --out holds a JSON list and the object is appended to it
(BENCH_perf_trajectory.json is such a list).  Metric directions come from
BENCHMARK.json in the head checkout.  The worktrees are removed at the
end unless --keep is given; a later call with the same --scratch reuses
kept worktrees that are at the requested commits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

# A verdict needs this share of the pairs won (9 in 10).
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    data = sorted(values)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, med, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return q1, med, q3


def summarize(base, head, better):
    """Verdict of head against base for one metric.

    `base` and `head` are the per-pair values, in pair order; `better` is
    "lower" or "higher".  A pair is won when head is strictly better.
    """
    if len(base) != len(head) or not base:
        raise ValueError("need the same, nonzero number of runs per side")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    iqr = bq3 - bq1
    gain = sign * (hmed - bmed)  # > 0: head's median is better
    need = math.ceil(WIN_SHARE * len(base))
    if wins >= need and gain > iqr:
        verdict = "met"
    elif losses >= need and -gain > iqr:
        verdict = "regressed"
    else:
        verdict = "unresolved"
    return {
        "better": better,
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "iqr": iqr},
        "head": {"median": hmed, "q1": hq1, "q3": hq3, "iqr": hq3 - hq1},
        "pairs": len(base),
        "wins": wins,
        "losses": losses,
        "median_change": (hmed - bmed) / bmed if bmed else None,
        "verdict": verdict,
    }


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def add_worktree(repo, rev, path):
    """Check `rev` out at `path`; a worktree kept there at `rev` is reused
    with its perfbench build."""
    commit = git(repo, "rev-parse", "--verify", rev + "^{commit}")
    if os.path.exists(path):
        if git(path, "rev-parse", "HEAD") == commit:
            return commit
        subprocess.run(["git", "-C", repo, "worktree", "remove", "--force",
                        path], capture_output=True)
    git(repo, "worktree", "add", "--detach", path, commit)
    return commit


def run_perfbench(checkout, workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace",
               "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"perfbench failed in {checkout} ({workload})")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def build(checkout):
    # The self-test builds perfbench and checks the probe; it is not timed.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"perfbench build or self-test failed in "
                           f"{checkout}")


def directions(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "cpu_model": model}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", default=".", help="git repository")
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--head", required=True, help="revision under test")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--metric", action="append",
                        help="metrics to judge (default: every end-to-end)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scratch", required=True,
                        help="directory for the two worktrees")
    parser.add_argument("--out", required=True)
    parser.add_argument("--append", action="store_true",
                        help="append to the JSON list in --out")
    parser.add_argument("--label", default="", help="free text for the record")
    parser.add_argument("--keep", action="store_true",
                        help="keep the worktrees afterwards")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    repo = os.path.abspath(args.repo)
    os.makedirs(args.scratch, exist_ok=True)
    sides = {"base": os.path.join(os.path.abspath(args.scratch), "base"),
             "head": os.path.join(os.path.abspath(args.scratch), "head")}
    try:
        commits = {side: add_worktree(repo, rev, sides[side])
                   for side, rev in (("base", args.base), ("head", args.head))}
        for side in ("base", "head"):
            print(f"paired: building {side} {commits[side][:12]}",
                  file=sys.stderr)
            build(sides[side])
        better = directions(sides["head"])
        metrics = args.metric or list(better)
        for m in metrics:
            if m not in better:
                parser.error(f"unknown metric {m}")

        record = {
            "tool": "tools/bench/paired.py",
            "label": args.label,
            "base": {"rev": args.base, "commit": commits["base"]},
            "head": {"rev": args.head, "commit": commits["head"]},
            "seed": args.seed,
            "seconds": args.seconds,
            "host": host_info(),
            "rule": f"met: head wins >= {WIN_SHARE:.0%} of pairs and its "
                    f"median beats base's by more than base's IQR",
            "workloads": {},
        }
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_perfbench(sides[side], workload,
                                               args.seed, args.seconds)
                runs.append(pair)
                print(f"paired: {workload} pair {k + 1}/{args.pairs} " +
                      " ".join(f"{m} {pair['base']['metrics'][m]:.4g}->"
                               f"{pair['head']['metrics'][m]:.4g}"
                               for m in metrics), file=sys.stderr)
            record["workloads"][workload] = {
                "pairs": runs,
                "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0
                                   for p in runs for s in ("base", "head")),
                "metrics": {
                    m: summarize([p["base"]["metrics"][m] for p in runs],
                                 [p["head"]["metrics"][m] for p in runs],
                                 better[m])
                    for m in metrics},
            }
    finally:
        if not args.keep:
            for path in sides.values():
                subprocess.run(["git", "-C", repo, "worktree", "remove",
                                "--force", path], capture_output=True)

    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
        doc.append(record)
    else:
        doc = [record] if args.append else record
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for workload, w in record["workloads"].items():
        for m, s in w["metrics"].items():
            print(f"{workload} {m}: {s['verdict']} ({s['wins']}/{s['pairs']} "
                  f"won, median {s['base']['median']:.4g} -> "
                  f"{s['head']['median']:.4g}, base IQR "
                  f"{s['base']['iqr']:.3g})")


if __name__ == "__main__":
    main()
