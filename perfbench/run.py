#!/usr/bin/env python3
"""Builds and runs the lpathdb benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload suite_direct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, untraced
    python3 perfbench/run.py --selftest              # the arithmetic unit tests

Run from the repository root. The program and the benchmark build with
CMake into $CARGO_TARGET_DIR (default .bench_build); build output goes to
stderr so that the last line of stdout stays the benchmark's JSON result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["suite_direct", "wire_mixed", "live_ingest"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 20061


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_quiet(cmd):
    """Runs cmd with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        code = run_quiet(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs]) == 0


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def src_digest():
    """sha256 over the program's sources, so runs of a checkout without git
    history are still tied to the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def result_line(measured, trace):
    """The result line: BENCHMARK.json's end_to_end metrics (per_layer when
    traced), in its order and units, from everything lpbench measured. A
    per-layer metric of a layer the workload does not reach reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = measured["metrics"].get(m["name"])
        if got is None and not trace:
            raise ValueError(f"{m['name']} was not measured")
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} measured in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
    return json.dumps({"correct": measured["correct"], "attempted": measured["attempted"],
                       "failed": measured["failed"], "metrics": metrics})


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--git-sha", git_sha(), "--src-digest", src_digest()]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    if r.returncode not in (0, 1) or not lines:
        sys.stdout.write(r.stdout)
        return r.returncode or 2
    for line in lines[:-1]:
        print(line)
    try:
        print(result_line(json.loads(lines[-1]), trace))
    except (ValueError, KeyError) as e:
        print(f"run.py: {workload}: {e}", file=sys.stderr)
        return 2
    return r.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true", help="build and run the unit tests")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "db", "database.h")):
        print("run.py: the lpathdb sources (src/) are missing", file=sys.stderr)
        return 2
    if args.selftest:
        if not build("perfbench_test"):
            return 2
        return subprocess.run([os.path.join(build_dir(), "perfbench_test")], cwd=ROOT).returncode
    if not args.all and args.workload is None:
        p.error("one of --workload or --all is required")
    if not build("lpbench"):
        print("run.py: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir(), "lpbench")
    workloads = WORKLOADS if args.all else [args.workload]
    code = 0
    for w in workloads:
        code = max(code, run_workload(binary, w, args.seed, args.seconds, args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
