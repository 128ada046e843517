#!/usr/bin/env bash
# Build the benchmark (release, offline) from the sources in this checkout,
# then run it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh summarize <result-file>...
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout. The build lands in $CARGO_TARGET_DIR (default: perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/perfbench" "$@"
