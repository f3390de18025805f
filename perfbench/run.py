#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (which builds the flint library through the
repository's own CMakeLists.txt) into .bench_build/perfbench; later calls
rebuild incrementally.  Each seed's inputs (trained model file, row pool and
reference labels) are generated once by `flint_perfbench gen` and cached
under .bench_build/perfbench/inputs-v<N>, outside every timed figure.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# workload -> the model it runs (see src/inputs.hpp)
WORKLOADS = {
    "serve-open.low": "serve",
    "serve-open.high": "serve",
    "batch-deep": "deep",
    "onesample-deep": "deep",
}

# Part of the input cache key: bump it whenever src/inputs.cpp changes what
# a seed generates, so no stale cache outlives the change.
INPUTS_VERSION = 2

BUILD_TIMEOUT_S = 800
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; on failure, shows the log tail.

    The command runs in its own process group, so a timeout also stops the
    compilers a build spawned, and every process has ended before this
    returns.
    """
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.readlines()[-40:]
        sys.stderr.write("".join(tail))
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to perfbench/: run from a full checkout "
                 "of the repository", code=2)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "-j", jobs],
               os.path.join(BUILD, "build.log"), BUILD_TIMEOUT_S)


def binary(name):
    return os.path.join(BUILD, name)


def inputs_for(kind, seed):
    """The seed's cached input directory, generated on first use."""
    path = os.path.join(BUILD, f"inputs-v{INPUTS_VERSION}", f"{kind}-{seed}")
    if os.path.isdir(path):
        return path
    partial = f"{path}.partial-{os.getpid()}"
    os.makedirs(partial, exist_ok=True)
    run_logged([binary("flint_perfbench"), "gen", "--kind", kind,
                "--seed", str(seed), "--out", partial],
               os.path.join(BUILD, "gen.log"), GEN_TIMEOUT_S)
    os.rename(partial, path)
    return path


def check_metric_names(result, trace):
    """The binary's metric list must be the one BENCHMARK.json declares."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if list(result.get("metrics", {})) != declared:
        fail(f"metrics {list(result.get('metrics', {}))} differ from "
             f"BENCHMARK.json {declared}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    if args.selftest:
        proc = subprocess.run([binary("perfbench_selftest"),
                               os.path.join(BUILD, "selftest")],
                              timeout=RUN_TIMEOUT_S, check=False)
        sys.exit(proc.returncode)

    inputs = inputs_for(WORKLOADS[args.workload], args.seed)
    cmd = [binary("flint_perfbench"), "run", "--workload", args.workload,
           "--inputs", inputs, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans",
                os.path.join(traces, f"{args.workload}-{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    print("\n".join(lines[:-1]))
    check_metric_names(result, args.trace)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
