#!/usr/bin/env bash
# Run cargo on the ROOT workspace with no registry access.
#
#   tools/offline/ws.sh test --workspace --offline
#   tools/offline/ws.sh xtask lint
#   RUSTFLAGS="--cfg lockdep" CARGO_TARGET_DIR=/some/dir tools/offline/ws.sh test ...
#
# The root workspace declares nine registry crates. Six have functional shims
# under benchmark/shims/ (what the hermetic benchmark builds against); the
# three dev-dependencies (proptest, criterion, tempfile) and a wider `rand`
# have stubs under tools/offline/stubs/. Pointing the workspace at them takes
# a `[patch.crates-io]` table in the root Cargo.toml and one overwritten shim
# file, so this script works on a COPY of the tree, refreshed on every call:
#
#   $BH_OFFLINE_DIR/repo     the copy (mtimes preserved: incremental builds
#                            stay warm; `.git` is a symlink, for `xtask loc`)
#   $BH_OFFLINE_DIR/target   build output, unless CARGO_TARGET_DIR is set
#
# BH_OFFLINE_DIR defaults to ${TMPDIR:-/tmp}/bh-offline. Run one cargo at a
# time per target dir. Files a command writes (target/bench-fresh/*.json,
# Cargo.lock) land in the copy, never in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
dir="${BH_OFFLINE_DIR:-${TMPDIR:-/tmp}/bh-offline}"
copy="$dir/repo"

mkdir -p "$copy"
# Drop what the last sync copied (files deleted since must not linger), keep
# the lock file cargo wrote, then copy the tree without its build outputs.
find "$copy" -mindepth 1 -maxdepth 1 ! -name Cargo.lock -exec rm -rf {} +
tar -C "$root" --exclude=./.git --exclude=./target --exclude=./.bench_build \
    --exclude=./benchmark/target --exclude=./benchmark/out -cf - . | tar -C "$copy" -xf -
ln -s "$root/.git" "$copy/.git"

cp -p "$copy/tools/offline/stubs/rand/src/lib.rs" "$copy/benchmark/shims/rand/src/lib.rs"
sed -i 's|^\[workspace\]$|[workspace]\nexclude = ["benchmark", "tools"]|' "$copy/Cargo.toml"
cat >>"$copy/Cargo.toml" <<'EOF'

[patch.crates-io]
bytes = { path = "benchmark/shims/bytes" }
crossbeam = { path = "benchmark/shims/crossbeam" }
rand = { path = "benchmark/shims/rand" }
rand_chacha = { path = "benchmark/shims/rand_chacha" }
serde = { path = "benchmark/shims/serde" }
serde_json = { path = "benchmark/shims/serde_json" }
proptest = { path = "tools/offline/stubs/proptest" }
criterion = { path = "tools/offline/stubs/criterion" }
tempfile = { path = "tools/offline/stubs/tempfile" }
EOF

cd "$copy"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$dir/target}" exec cargo "$@"
