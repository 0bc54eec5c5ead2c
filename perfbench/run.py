#!/usr/bin/env python3
"""Builds the simulator and the perfbench binary from source, then runs one
workload of the repository benchmark.

    python3 perfbench/run.py --workload serve-exact --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root; every later run rebuilds incrementally. Build
output goes to stderr, so stdout holds only the benchmark's report, whose last
line is the JSON result. The exit status is the binary's (0: every check
passed); 2 when the sources or the toolchain are missing.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_id():
    """The git commit when the tree is a clone, else a hash of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=sys.stderr, check=False).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-exact", "dse-sweep", "fabric-pipeline"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--threads", type=int, default=4,
                        help="host threads the workload uses (default 4); "
                             "more than the host has is refused")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    if not build(build_dir):
        return fail("build failed")
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    command = [str(build_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--threads", str(args.threads),
               "--trace-dir", str(trace_dir),
               "--source", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, check=False,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
