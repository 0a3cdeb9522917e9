#!/usr/bin/env bash
# The benchmark's one command:
#
#   bash benchmark/run.sh --workload steady|backfill|resolve --seed N --seconds S --trace 0|1
#
# Builds the repository's `sdcimon` and this crate (release, offline)
# before any timing starts, then runs one workload. The last line of
# standard output is the JSON result; everything else goes to standard
# error or to benchmark/target/.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
cd "$root"

# One target directory for both builds. A caller's CARGO_TARGET_DIR is
# honoured (made absolute: cargo resolves a relative one against each
# manifest it builds); the default is benchmark/target, which the
# benchmark's own .gitignore covers.
target="${CARGO_TARGET_DIR:-$bench/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin sdcimon >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2

export SDCI_BENCH_SDCIMON="$target/release/sdcimon"
export SDCI_BENCH_OUT="$bench/target"
exec "$target/release/sdci-pipeline-bench" "$@"
