#!/usr/bin/env python3
"""Byte-diff the modelled outputs of two commits.

    python3 tools/bench/modelled_diff.py --base REV --head REV \\
        --scratch DIR [--repo PATH] [--jobs N] [--keep]

Checks both commits out as git worktrees under DIR (paired.py's helpers),
builds each one's bench, tool and example targets, runs the same
deterministic workloads in both and compares every output byte for byte:

  * scale_sweep --quick, fault_sweep --quick (every CSV and JSON),
    ablation_hybrid --quick, fig_astro / fig_fusion / fig_thermal --quick,
    io_overlap --quick, the 50-schedule chaos_soak, and the quickstart and
    scaling_study examples: stdout, exit status and every file written;
  * CLI hybrid fault runs (`streamflow experiment`, 3-150 ranks at the
    default layout; master, root and slave crashes, drops, slow ranks);
  * hybrid fault configurations over the layout grid (3-150 ranks,
    W 2-32, root fanout 0/2/4; master, root and slave crashes, drops,
    slow ranks).  The CLI has no layout flags, so these run through
    modelled_configs.cpp, which this script compiles against each
    checkout's library.

Every program runs in its own output directory with relative paths, so
the outputs hold no checkout path.  A run still going after TIMEOUT_S
seconds is stopped and recorded as "timeout", and each side lists its
timeouts.  Exit status 0 when every output is
identical, 1 naming every differing output (one `differs:` line each),
2 when a build fails.
The worktrees are removed at the end unless --keep is given; a later call
with the same --scratch reuses kept worktrees at the requested commits.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import filecmp
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from paired import add_worktree, git  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# A run still going after this many seconds is recorded as "timeout": the
# slowest workload here, the chaos soak, takes about 5 s.
TIMEOUT_S = 60

TARGETS = ["scale_sweep", "fault_sweep", "ablation_hybrid", "fig_astro",
           "fig_fusion", "fig_thermal", "io_overlap", "chaos_soak",
           "streamflow_cli", "quickstart", "scaling_study",
           "modelled_configs"]

# (output name, program relative to the build directory, arguments).
PROGRAMS = [
    ("scale_sweep", "bench/scale_sweep", ["--quick", "--out=scale.json"]),
    ("fault_sweep", "bench/fault_sweep", ["--quick", "--csv=."]),
    ("ablation_hybrid", "bench/ablation_hybrid", ["--quick", "--csv=."]),
    ("fig_astro", "bench/fig_astro", ["--quick", "--csv=."]),
    ("fig_fusion", "bench/fig_fusion", ["--quick", "--csv=."]),
    ("fig_thermal", "bench/fig_thermal", ["--quick", "--csv=."]),
    ("io_overlap", "bench/io_overlap", ["--quick", "--out=io.json"]),
    ("chaos_soak", "tools/chaos_soak", ["--out-dir=failures"]),
    ("quickstart", "examples/quickstart", ["out"]),
    ("scaling_study", "examples/scaling_study", []),
]


def layout(ranks, w, fanout):
    """(num_masters, num_roots) as HybridLayout::make computes them."""
    flat = min(max(ranks // (w + 1), 1), ranks - 1)
    if fanout > 0 and flat > fanout:
        roots = (flat + fanout - 1) // fanout
        if flat + roots < ranks:
            return flat + roots, roots
    return flat, 0


def fault_mix(i, ranks, masters, roots):
    """The i-th fault mix for a layout: (crashes, drop rate, slow rank).
    Crashes are RANK@TIME_REL, slow ranks RANK@TIME_REL@FACTOR."""
    last = ranks - 1
    leaf = roots  # the first leaf master
    slave = masters + (ranks - masters) // 2
    mixes = [
        ([f"{leaf}@0.3"], 0.0, None),                         # master
        ([f"{last}@0.4"], 0.05, f"{masters}@0.1@10"),         # slave
        (["0@0.3", f"{last}@0.5"], 0.02, None),               # root/counter
        ([f"{leaf}@0.3", f"{slave}@0.5"], 0.05,
         f"{last}@0.1@8"),                                    # master+slave
    ]
    crashes, drop, slow = mixes[i % len(mixes)]
    # One crash per rank: the earliest.
    by_rank = {}
    for c in sorted(crashes, key=lambda c: float(c.split("@")[1])):
        by_rank.setdefault(c.split("@")[0], c)
    return list(by_rank.values()), drop, slow


def driver_configs():
    """Lines for modelled_configs: the layout grid times the fault mixes."""
    lines = []
    i = 0
    for ranks in (3, 5, 9, 13, 17, 24, 33, 48, 64, 100, 150):
        for w in (2, 4, 8, 32):
            for fanout in (0, 2, 4):
                masters, roots = layout(ranks, w, fanout)
                crashes, drop, slow = fault_mix(i, ranks, masters, roots)
                count = min(40 * ranks, 1200)
                lines.append(f"{ranks} {w} {fanout} {count} 0.02 "
                             f"{','.join(crashes) or '-'} {drop} "
                             f"{slow or '-'}")
                i += 1
    return lines


def cli_configs():
    """Argument lists for `streamflow experiment`, default layout."""
    configs = []
    for i, ranks in enumerate((3, 4, 6, 9, 12, 16, 24, 33, 40, 64, 100,
                               150)):
        for kind in range(4):
            args = ["experiment", "--algorithm=hybrid", f"--procs={ranks}",
                    "--blocks=4", f"--count={min(40 * ranks, 1200)}",
                    "--max-steps=400", f"--fault-seed={i * 4 + kind}"]
            slave = ranks - 1
            if kind == 0:
                args.append("--crash=0@0.02")                 # the master
            elif kind == 1:
                args += [f"--crash={slave}@0.03", "--drop-rate=0.05"]
            elif kind == 2:
                args.append(f"--slow-rank={slave}@0.01@10")
            else:
                args += [f"--crash=0@0.02,{slave}@0.04", "--drop-rate=0.02",
                         f"--slow-rank={ranks // 2}@0.01@6"]
            args.append("--heartbeat=0.005")
            configs.append(args)
    return configs


def run(argv, cwd, stdin=None):
    """Run one program; its stdout and exit status (or "timeout") become
    outputs.  Returns whether it timed out."""
    try:
        proc = subprocess.run(argv, cwd=cwd, input=stdin,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        stdout, status = proc.stdout, str(proc.returncode)
    except subprocess.TimeoutExpired:
        stdout, status = "", "timeout"
    with open(os.path.join(cwd, "stdout"), "w") as f:
        f.write(stdout)
    with open(os.path.join(cwd, "status"), "w") as f:
        f.write(status + "\n")
    return status == "timeout"


def build(checkout, jobs):
    """Configure and build the targets; returns the build directory."""
    build_dir = os.path.join(checkout, "build-modelled")
    hook = os.path.join(build_dir, "modelled_configs.cmake")
    os.makedirs(build_dir, exist_ok=True)
    with open(hook, "w") as f:
        f.write(f'add_executable(modelled_configs '
                f'"{os.path.join(HERE, "modelled_configs.cpp")}")\n'
                f"target_link_libraries(modelled_configs PRIVATE "
                f"streamflow)\n"
                f"target_compile_features(modelled_configs PRIVATE "
                f"cxx_std_20)\n")
    steps = [["cmake", "-S", checkout, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release",
              f"-DCMAKE_PROJECT_streamflow_INCLUDE={hook}"],
             ["cmake", "--build", build_dir, "-j", str(jobs), "--target",
              *TARGETS]]
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
            raise RuntimeError(f"build failed in {checkout}")
    return build_dir


def run_side(build_dir, out, jobs):
    """Run every workload of one side into `out`."""
    tasks = []
    for name, program, args in PROGRAMS:
        cwd = os.path.join(out, name)
        os.makedirs(cwd)
        tasks.append(([os.path.join(build_dir, program), *args], cwd, None))
    cli = os.path.join(build_dir, "tools", "streamflow")
    for i, args in enumerate(cli_configs()):
        cwd = os.path.join(out, "cli", f"{i:03d}")
        os.makedirs(cwd)
        with open(os.path.join(cwd, "args"), "w") as f:
            f.write(" ".join(args) + "\n")
        tasks.append(([cli, *args], cwd, None))
    lines = driver_configs()
    for i, line in enumerate(lines):
        cwd = os.path.join(out, "configs", f"{i:03d}")
        os.makedirs(cwd)
        tasks.append(([os.path.join(build_dir, "modelled_configs")], cwd,
                      line + "\n"))
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        futures = [pool.submit(run, *t) for t in tasks]
        timeouts = [os.path.relpath(t[1], out)
                    for t, f in zip(tasks, futures) if f.result()]
    for rel in timeouts:
        print(f"  timeout after {TIMEOUT_S} s: {rel}")
    return len(cli_configs()), len(lines)


def differences(base, head):
    """Every output path (relative) that differs, in sorted walk order: a
    file or directory on one side only, a file on one side that is a
    directory on the other, or a file whose bytes differ."""
    diffs = []
    for root, dirs, files in os.walk(base):
        dirs.sort()
        rel = os.path.relpath(root, base)
        other = os.path.join(head, rel)
        ours = set(dirs) | set(files)
        theirs = set(os.listdir(other))
        for name in sorted(ours | theirs):
            path = os.path.normpath(os.path.join(rel, name))
            if name not in theirs:
                diffs.append(f"{path} (base only)")
            elif name not in ours:
                diffs.append(f"{path} (head only)")
            elif (name in dirs) != os.path.isdir(os.path.join(other, name)):
                diffs.append(f"{path} (a directory on one side only)")
            elif name in files and not filecmp.cmp(
                    os.path.join(root, name), os.path.join(other, name),
                    shallow=False):
                diffs.append(path)
        # Descend only where both sides hold the directory.
        dirs[:] = [d for d in dirs if os.path.isdir(os.path.join(other, d))]
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--repo", default=".", help="git repository (default .)")
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--scratch", required=True,
                    help="directory for the worktrees, builds and outputs")
    ap.add_argument("--jobs", type=int, default=3,
                    help="build jobs and concurrent runs (default 3)")
    ap.add_argument("--keep", action="store_true",
                    help="keep the worktrees and their builds")
    args = ap.parse_args()

    repo = os.path.abspath(args.repo)
    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        checkout = os.path.join(scratch, side)
        commit = add_worktree(repo, rev, checkout)
        print(f"{side}: {commit}", flush=True)
        try:
            build_dir = build(checkout, args.jobs)
        except RuntimeError as e:
            print(e)
            return 2
        out = os.path.join(scratch, "out", side)
        shutil.rmtree(out, ignore_errors=True)
        cli, configs = run_side(build_dir, out, args.jobs)
        sides[side] = out
    print(f"compared: {len(PROGRAMS)} programs, {cli} CLI hybrid fault runs, "
          f"{configs} hybrid layout fault configurations")
    diffs = differences(sides["base"], sides["head"])
    if not args.keep:
        for side in sides:
            git(repo, "worktree", "remove", "--force",
                os.path.join(scratch, side))
    if diffs:
        for diff in diffs:
            print(f"differs: {diff}")
        print(f"{len(diffs)} differing outputs")
        return 1
    print("no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
