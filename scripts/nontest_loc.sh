#!/usr/bin/env bash
# Count the non-test lines of Rust source: every .rs file under
# crates/*/src and src, up to (not including) the file's first
# `#[cfg(test)]` line. Blank lines and comments count. (The second
# awk sums the counts in case xargs splits the file list.)
#
# Usage: scripts/nontest_loc.sh [REPO_DIR]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines++ }
    END { print lines + 0 }' | awk '{ total += $1 } END { print total + 0 }'
