#!/usr/bin/env python3
"""Build and run the hextile benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
library and the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build); later runs reuse the build. Everything the run writes stays
under that directory: the JIT scratch space (TMPDIR), the artifact stores
and, per run, the full result (results/*.json) and, with --trace 1, the
gzipped Chrome trace (results/*.trace.json.gz).

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without a
result line, when the sources or the build are missing or broken.
"""

import argparse
import glob
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir, targets):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", cmake_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("building the benchmark failed")
    return cmake_dir


def file_digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def untraced_throughput(results_dir, workload, digest):
    """Median throughput of this build's earlier untraced runs."""
    values = []
    pattern = "%s-%s-*-t0.json" % (workload, digest)
    for path in glob.glob(os.path.join(results_dir, pattern)):
        try:
            with open(path) as f:
                r = json.load(f)
            if r.get("failed") == 0 and r.get("timing") == "full":
                values.append(r["end_to_end"]["throughput"]["value"])
        except (OSError, ValueError, KeyError):
            continue
    return statistics.median(values) if values else 0.0


def check_metric_names(root, trace, metrics):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(metrics)
    if want != got:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)), 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--liveness", action="store_true",
                    help="tiny sizes: proves the code runs, never speed")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, need)):
            fail("%s not found: run from the root of a hextile checkout" % need)
    build_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    if args.self_test:
        cmake_dir = build(root, build_dir, ["perfbench_selftest"])
        sys.exit(subprocess.run(
            [os.path.join(cmake_dir, "perfbench_selftest")], env=env).returncode)
    if not args.workload:
        fail("--workload is required")

    cmake_dir = build(root, build_dir, ["perfbench"])
    binary = os.path.join(cmake_dir, "perfbench")
    digest = file_digest(binary)
    workdir = os.path.join(build_dir, "work", digest)
    results = os.path.join(build_dir, "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-%s-s%d-%d-t%s" % (
        args.workload, digest, args.seed, time.time_ns(), args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--out", stem + ".json"]
    if args.trace == "1":
        cmd += ["--trace-out", stem + ".trace.json", "--untraced-throughput",
                repr(untraced_throughput(results, args.workload, digest))]
    if args.liveness:
        cmd.append("--liveness")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s and was stopped" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result (exit code %d)"
             % proc.returncode, 1)
    if args.trace == "1" and os.path.exists(stem + ".trace.json"):
        # A serve trace holds a span per request (~150 MB); Perfetto and
        # chrome://tracing open the gzipped JSON directly.
        with open(stem + ".trace.json", "rb") as raw, \
                gzip.open(stem + ".trace.json.gz", "wb", compresslevel=1) as gz:
            shutil.copyfileobj(raw, gz)
        os.remove(stem + ".trace.json")
    print("\n".join(lines[:-1]))
    check_metric_names(root, args.trace == "1", result["metrics"])
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
