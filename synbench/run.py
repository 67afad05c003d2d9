#!/usr/bin/env python3
"""Builds and runs the Synergy two-clock benchmark from the repository root.

    python3 synbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Configures and builds synbench/ (its CMake project builds the repository's
libraries from src/) into .bench_build with the Release build type, then
runs one benchmark process. Its stdout is passed through; the last line is
the JSON result. Build output and progress go to stderr. Raw per-op samples
land in .bench_out/. See synbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, else a digest of src/ (a checkout without .git)."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and (ROOT / ".git").exists():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "synbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j4", "--target", "synbench"],
        check=True, stdout=log, stderr=log)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "order", "contended"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"no Synergy sources under {ROOT}: need CMakeLists.txt and src/",
              file=sys.stderr)
        return 2
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(build_dir / "synbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rev", source_rev()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
