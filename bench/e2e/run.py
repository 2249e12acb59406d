#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark described by BENCHMARK.json.

Run from the repository root:

    python3 bench/e2e/run.py --workload serve_local --seed 1 --seconds 20 --trace 0

It configures and builds bench/e2e (a standalone CMake project that pulls in
the library from the root) into build-bench/, runs safeloc_bench, and prints
as its last line one JSON object with the keys correct, attempted, failed and
metrics: every end_to_end metric of BENCHMARK.json with --trace 0, every
per_layer metric with --trace 1. The full result (host shape, violations and
every metric the run measured) stays in the --out file, by default
build-bench/results/<workload>-seed<seed>-trace<trace>.json.

Exit status: 0 when the run's outputs were correct, non-zero otherwise (a
failed build prints no result line at all).
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = "build-bench"
# Generous: the first run in a fresh checkout builds the library.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then lets cmake --build redo only what changed."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "safeloc_bench", "bench_selftest"], check=True, **quiet)


def run_bench(args, out):
    """Runs safeloc_bench in its own process group. The bench stops the
    shard_server children it starts; killing the group afterwards also
    covers a bench that timed out or crashed."""
    cmd = [os.path.join(BUILD_DIR, "safeloc_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: safeloc_bench timed out", file=sys.stderr)
        status = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already empty
    proc.wait()
    return status


def select(result, spec, trace):
    """The result line: the metrics BENCHMARK.json declares for this mode,
    each checked for presence and unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        if got is None:
            raise SystemExit("run.py: the run did not report "
                             + entry["name"])
        if got["unit"] != entry["unit"]:
            raise SystemExit("run.py: %s reported in %s, declared %s"
                             % (entry["name"], got["unit"], entry["unit"]))
        metrics[entry["name"]] = got
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="result file (default under "
                        + BUILD_DIR + "/results)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("run.py: unknown workload " + args.workload)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as failure:
        raise SystemExit("run.py: build failed: %s" % failure)

    out = args.out or os.path.join(
        BUILD_DIR, "results",
        "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    status = run_bench(args, out)
    if status is None or not os.path.exists(out):
        raise SystemExit("run.py: safeloc_bench produced no result (exit %s)"
                         % status)
    with open(out) as f:
        result = json.load(f)
    print(json.dumps(select(result, spec, args.trace)), flush=True)
    return 0 if status == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
