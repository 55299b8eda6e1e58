#!/usr/bin/env bash
# Harness tests, then every workload at 2 frames (untraced and traced) with
# every check on. Exits non-zero if a test, a frame or a check fails.
# Takes about two minutes on 2 cores; a later PR can call this from
# .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke "$@"
