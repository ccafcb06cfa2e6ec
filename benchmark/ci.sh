#!/usr/bin/env bash
# Checks the benchmark crate itself: format, lints, unit tests, then every
# workload and its output checks at 1/10 size (under 15 s once built).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release --quiet
"$here/run.sh" --smoke
"$here/run.sh" --selfcheck --smoke
