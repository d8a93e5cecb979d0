#!/usr/bin/env bash
# The one command of BENCHMARK.json: build the benchmark offline, then run it.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1 | --traced] [--quick]
#   bash benchmark/run.sh --repeat N --compare [--seed N] [--seconds S] [--quick]
#
# Without --workload all four workloads run in turn. The last line printed
# for each workload is the JSON result object. `--repeat N --compare` runs
# every workload N times in each of two sets (separate processes, same
# seed), prints the spread of every end-to-end metric and checks that the
# two sets agree within the bounds stored in BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The driver sets CARGO_TARGET_DIR (relative to where it starts us); resolve
# it before changing directory. Left alone, build under benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

for arg in "$@"; do
    if [ "$arg" = "--compare" ]; then
        exec python3 "$here/compare.py" "$@"
    fi
done

# One build path: offline, against the shims. A checkout that lacks the
# library crates fails here, before anything is printed.
( cd "$here" && cargo build --release --offline --quiet )

export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/bh-benchmark" --out-dir "$here/out" "$@"
