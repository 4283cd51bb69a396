#!/usr/bin/env bash
# Print the number of non-test source lines under crates/*/src: every line
# of each .rs file up to its first `#[cfg(test)]`. Usage: scripts/sloc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -print0 \
    | xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'
