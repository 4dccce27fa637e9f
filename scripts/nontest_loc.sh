#!/usr/bin/env bash
# Count the non-test lines of Rust source: every .rs file under
# crates/*/src and src, up to (not including) the file's first
# `#[cfg(test)]` line. Blank lines and comments count.
#
# Usage: scripts/nontest_loc.sh [REV]
#   No argument: count the files in this checkout's working tree.
#   REV (a commit, branch or tag): count that revision's files as git
#   stores them, read with `git show`, without checking it out.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of one file (on stdin) before its first `#[cfg(test)]`. It
# reads to the end, so `git show` never writes into a closed pipe.
count() {
    awk '/#\[cfg\(test\)\]/ { done = 1 } !done { lines++ } END { print lines + 0 }'
}

total=0
if [ $# -eq 0 ]; then
    while IFS= read -r -d '' f; do
        total=$((total + $(count < "$f")))
    done < <(find crates/*/src src -name '*.rs' -print0)
else
    rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
        echo "nontest_loc.sh: unknown revision '$1'" >&2
        exit 2
    }
    while IFS= read -r f; do
        total=$((total + $(git show "$rev:$f" | count)))
    done < <(git ls-tree -r --name-only "$rev" -- crates src |
        grep -E '^(crates/[^/]+/)?src/.*\.rs$')
fi
echo "$total"
