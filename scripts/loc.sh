#!/usr/bin/env bash
# Non-test source lines per crate: for every file under crates/*/src, the
# lines before its first module-level `#[cfg(test)]` (all of them when it
# has none) — the count CHANGES.md entries quote.
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail when a pair of crates exceeds its
#                            ceiling in scripts/loc-budget.txt: line 1
#                            (of the lines that are not comments) holds
#                            crates/runtime/src + crates/server/src, line 2
#                            crates/core/src + crates/mem/src
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # non-test lines of every .rs file under the given directories
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'
}

for dir in crates/*/src; do
    printf '%-24s %6d\n' "$dir" "$(count "$dir")"
done
serving=$(count crates/runtime/src crates/server/src)
printf '%-24s %6d\n' 'runtime + server' "$serving"
device=$(count crates/core/src crates/mem/src)
printf '%-24s %6d\n' 'core + mem' "$device"

if [ "${1:-}" = --check ]; then
    mapfile -t budgets < <(grep -v '^#' scripts/loc-budget.txt)
    status=0
    over() { # name, lines, budget
        if [ "$2" -gt "$3" ]; then
            echo "$1: $2 non-test lines, over the budget of $3" >&2
            status=1
        fi
    }
    over 'crates/runtime/src + crates/server/src' "$serving" "${budgets[0]}"
    over 'crates/core/src + crates/mem/src' "$device" "${budgets[1]}"
    if [ "$status" -ne 0 ]; then
        echo "(scripts/loc-budget.txt; a PR that raises a ceiling says why)" >&2
    fi
    exit "$status"
fi
