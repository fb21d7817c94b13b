#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark; see bench/e2e/README.md.
#
#   bench/e2e/run.sh --seconds S [--workload NAME] [--seed N] [--trace 0|1]
#                    [--threads N]
#
# S is the timed region's length, BENCHMARK.json's run_seconds.
# Run from anywhere inside a checkout. The first call configures and builds
# the library and bench/e2e into .bench_build/e2e (Release); later calls
# only rebuild what changed. Without --workload every workload runs, one
# process each. Build output goes to stderr; each workload's last stdout
# line is its JSON result, and a fuller record lands in
# .bench_build/e2e/work/results/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
# Keep the compiler's temporary files inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target e2e_bench -j "$jobs" >&2

rev=unknown
if [ -e "$root/.git" ]; then
  rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
bench=("$build/e2e_bench" --work "$build/work" --git-rev "$rev")

for arg in "$@"; do
  case "$arg" in
    --workload|--workload=*) exec "${bench[@]}" "$@" ;;
  esac
done
for workload in flow_exact search_approx packet_bulk fct_incast warm_grid; do
  "${bench[@]}" --workload "$workload" "$@"
done
