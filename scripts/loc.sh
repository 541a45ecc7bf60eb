#!/usr/bin/env bash
# Non-test source lines per crate: for every file under crates/*/src, the
# lines before its first module-level `#[cfg(test)]` (all of them when it
# has none) — the count CHANGES.md entries quote.
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail when crates/runtime/src +
#                            crates/server/src exceed scripts/loc-budget.txt
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

if [ "${1:-}" = --check ]; then
    budget=$(grep -v '^#' scripts/loc-budget.txt)
    if [ "$serving" -gt "$budget" ]; then
        echo "crates/runtime/src + crates/server/src: $serving non-test lines, over the budget of $budget" >&2
        echo "(scripts/loc-budget.txt; a PR that raises it says why)" >&2
        exit 1
    fi
fi
