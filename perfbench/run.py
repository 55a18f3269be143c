#!/usr/bin/env python3
"""Full-stack benchmark of the Narwhal/Tusk reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload wan-n20-tusk --seed 1 --seconds 25 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
repository's libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs one workload. Build output goes to stderr; stdout
carries the binary's report, whose last line is the JSON result. --trace 1
prints the per-layer metrics instead of the end-to-end ones.

Exit codes: 0 = every correctness check passed, 1 = a check failed or the run
timed out, 2 = bad arguments, missing sources or a failed build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Stop a run that overruns, well before three minutes.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the repository's src/ is missing next to perfbench/", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
