#!/bin/sh
# Self-check of the benchmark crate: formatting, lints, unit tests and the
# end-to-end pass in tests/selfcheck.rs (a --quick run of every workload,
# the probes, the traced pass and the whole ledger, held to BENCHMARK.json).
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
echo "selfcheck: PASS"
