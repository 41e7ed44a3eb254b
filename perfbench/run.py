#!/usr/bin/env python3
"""Build the GAIA benchmark and run one workload (stdlib only).

Usage, from the repository root:

    python3 perfbench/run.py --workload fig14-sweep --seed 1 \
        --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
repository's src/ tree) into .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr. The run
prints the host and build it ran on, a human-readable table, and as
its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --self-test builds and runs the
benchmark's own unit tests instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Relative to ROOT, where every command runs: keeps the daemon's
# AF_UNIX socket path short however deep the checkout is.
BUILD = os.path.join(".bench_build", "perfbench")
REFERENCE = os.path.join("perfbench", "reference_fingerprints.txt")


def build(targets: list[str]) -> None:
    """Configure (a no-op when current), then build `targets`."""
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "-S", "perfbench", "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
        cwd=ROOT, stdout=sys.stderr, check=True)


def source_hash() -> str:
    """SHA-256 over src/ and perfbench/, naming the code measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout, or "none" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_tests"])
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_tests")], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")

    build(["gaia_perfbench"])
    host = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "git_sha": git_sha(), "source_hash": source_hash(),
            "workload": args.workload, "seed": args.seed}
    print("host: " + json.dumps(host), flush=True)
    return subprocess.run(
        [os.path.join(BUILD, "gaia_perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--reference", REFERENCE, "--work-dir", BUILD],
        cwd=ROOT).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        sys.exit(1)
