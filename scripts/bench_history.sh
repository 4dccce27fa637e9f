#!/usr/bin/env bash
# Render BENCH_history.jsonl as markdown: one table per workload and
# metric, one row per PR with the parent and change medians and their
# ratio (change / parent). Fields are read by name, so their order on a
# line does not matter; a line missing one is an error.
#
# Usage: scripts/bench_history.sh [REPO_DIR]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
awk '
function field(name,    re, v) {
    re = "\"" name "\"[ \t]*:[ \t]*"
    if (!match($0, re "(\"[^\"]*\"|[^,} \t]+)")) {
        printf "BENCH_history.jsonl:%d: no field %s\n", NR, name > "/dev/stderr"
        bad = 1
        exit 1
    }
    v = substr($0, RSTART, RLENGTH)
    sub(re, "", v)
    gsub(/"/, "", v)
    return v
}
NF == 0 { next }
{
    key = field("workload") " · " field("metric") " (" field("unit") ")"
    if (!(key in rows)) order[++n] = key
    parent = field("parent_median")
    change = field("change_median")
    rows[key] = rows[key] sprintf("| %s | %s | %s | %.3f |\n", field("pr"), parent, change, change / parent)
}
END {
    if (bad) exit 1
    for (i = 1; i <= n; i++) {
        printf "### %s\n\n", order[i]
        print "| PR | parent median | change median | change / parent |"
        print "|---:|---:|---:|---:|"
        printf "%s\n", rows[order[i]]
    }
}' BENCH_history.jsonl
