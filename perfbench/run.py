#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the repository's
libraries from source) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls reuse the build. Every call runs the benchmark's
self-test, then the driver, and prints the driver's output. The last
line of standard output is the driver's JSON result. Everything the
benchmark writes, including the host compiler's scratch files, stays
under the build directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cosim_vorbis_split", "cosim_ray_split", "serve_vorbis_open")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir, env):
    """Configure once, then (re)build the driver and the self-test."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr, env=env)


def run(cmd, env, timeout):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{' '.join(cmd)} did not finish in {timeout} s", 1)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    bench_dir = Path(__file__).resolve().parent
    repo = bench_dir.parent
    if not (repo / "CMakeLists.txt").is_file() or \
            not (repo / "src" / "platform" / "cosim.hpp").is_file():
        fail(f"no repository sources next to {bench_dir.name}/; "
             "run from a full checkout")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build_dir = build_dir / "perfbench"
    tmp = build_dir / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        try:
            build(bench_dir, build_dir, env)
        except subprocess.CalledProcessError as e:
            fail(f"build failed ({e})", 1)

        code, out = run([str(build_dir / "perfbench_selftest")], env, 60)
        sys.stderr.write(out)
        if code != 0:
            fail("self-test failed", 1)

        code, out = run(
            [str(build_dir / "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", args.trace],
            env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail(f"driver printed no result (exit code {code})", 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if code != 0 or result["correct"] is not True:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
