#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it:
#
#   bash perfbench/run.sh --workload <dco224|pin3d|serve_mixed> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Cargo's output goes to stderr, so the last line on stdout is the
# benchmark's JSON result. The build honours CARGO_TARGET_DIR (default:
# perfbench/target); a relative value is taken from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/dco-perfbench" "$@"
