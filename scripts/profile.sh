#!/usr/bin/env bash
# Flat gprof profile of one fig14 cell on one thread.
#
# Builds gaia_run in Release with -pg into its own build directory,
# runs one cell of the fig14 sweep (Carbon-Time at the default 6x24
# waiting limits on the year-long, 100k-job Alibaba trace, SA-AU
# carbon) through `gaia_run --threads 1`, and prints the top of
# `gprof -b -p`.
#
# Usage: scripts/profile.sh [BUILD_DIR] [TOP_N]
#   BUILD_DIR  build directory for the -pg tree (default build-gprof)
#   TOP_N      profile rows to print (default 25)

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(realpath -m "${1:-$root/build-gprof}")"
top="${2:-25}"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
cmake --build "$build" -j "$(nproc)" --target gaia_run >/dev/null

run="$build/profile-run"
rm -rf "$run"
mkdir -p "$run"
# gmon.out is written to the working directory at exit.
(cd "$run" && "$build/src/cli/gaia_run" \
    --workload alibaba --jobs 100000 --span-days 365 --region SA-AU \
    --seed 1 --policy Carbon-Time -w 6x24 --threads 1 \
    --output-dir "$run/results" >/dev/null)

# Header lines plus the first TOP_N rows of the flat profile.
gprof -b -p "$build/src/cli/gaia_run" "$run/gmon.out" |
    head -n "$((top + 5))"
