#!/usr/bin/env bash
# Flat gprof profiles of the Figure 7 methods at 1000 peers.
#
# Builds madnet_run with -pg into its own tree, runs N serial 1000-peer
# replications per method (Table II defaults otherwise: 5 km arena,
# 2000 s simulated, seeds 1..N) and prints the top of each flat profile.
# Self time only: libm and libc are not instrumented, so their share shows
# up as missing time rather than as rows.
#
# Usage: tools/profile_methods.sh [runs-per-method]
#   runs-per-method  replications per method (default 12; a 1000-peer
#                    flooding run is ~0.1 s, so fewer give too few samples)
# The -pg tree is build-pg/ at the repo root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
runs="${1:-12}"
methods=(flooding gossip optimized1 optimized2 optimized)
build="$root/build-pg"
rows=25

command -v gprof >/dev/null || { echo "gprof not found" >&2; exit 1; }

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
cmake --build "$build" -j --target madnet_run >/dev/null
binary="$build/tools/madnet_run"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for method in "${methods[@]}"; do
  rm -f "$work/gmon.out"
  # --jobs=1 keeps every replication on the main thread, the only thread
  # gprof samples.
  (cd "$work" && "$binary" --peers=1000 --method="$method" --reps="$runs" \
     --seed=1 --jobs=1 >/dev/null)
  gprof -b -p "$binary" "$work/gmon.out" > "$work/flat.txt"
  echo "=== $method: $runs x 1000 peers ==="
  head -n $((rows + 5)) "$work/flat.txt"
  echo
done
