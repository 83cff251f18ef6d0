#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails unless at least one
# test ran. `cargo test` exits 0 when a name filter matches nothing, so a
# renamed or deleted test would otherwise turn a CI step into a silent no-op.
#
#   ci/cargo-test-nonempty.sh --release -p mn-bench --test golden fingerprints_survive_kernel_changes
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
passed=$(grep -oE '^test result: ok\. [0-9]+ passed' "$log" | awk '{n += $4} END {print n + 0}')
if [ "$passed" -lt 1 ]; then
  echo "error: no test ran for: cargo test $*" >&2
  exit 1
fi
