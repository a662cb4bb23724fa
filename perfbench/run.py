#!/usr/bin/env python3
"""StreamFlow performance benchmark (perfbench/README.md describes it).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the library (src/) and the benchmark program into
.bench_build/perfbench, runs one workload, checks that the metrics it
printed are exactly the ones BENCHMARK.json declares, and prints the
result as the last line of stdout.  Everything it writes stays under
.bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
WORKLOADS = ("paper_p64", "scale_16k", "threads_ooc", "service_mix")
# A run must finish within 180 s; a run that hangs is stopped before that.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not in this checkout")
    commands = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", BUILD, "--parallel",
                     str(min(4, os.cpu_count() or 1))])
    for command in commands:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(command, stdout=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(command))
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(env)

    scratch = os.path.join(WORK, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--scratch", scratch]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds),
                    "--trace", str(args.trace)]
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.self_test:
        sys.stdout.write(out)
        sys.exit(proc.returncode)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the benchmark program exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(args.trace):
        fail("the printed metrics differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
