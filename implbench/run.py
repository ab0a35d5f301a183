#!/usr/bin/env python3
"""Builds the implication-engine benchmark from source, then runs it.

Run from the repository root:

    python3 implbench/run.py --workload solve_mixed --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/implbench (default
.bench_build/implbench) under the current directory; the first run
configures and compiles the library sources in src/ plus the benchmark,
later runs only re-check that the build is up to date. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. A
failed build exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if shutil.which("cmake") is None:
        sys.exit("implbench: cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            # A half-configured tree would skip configuration next time.
            if cmd[1] == "-S":
                shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit(f"implbench: build step failed: {' '.join(cmd)}")


def git_sha():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "none"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(base, "implbench")
    build(build_dir)
    print(f"# git_sha={git_sha()}", flush=True)
    cmd = [os.path.join(build_dir, "implbench"), *sys.argv[1:],
           "--spill-dir", os.path.join(build_dir, "spill")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
