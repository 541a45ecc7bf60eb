#!/usr/bin/env bash
# Non-test source lines and public surface per crate: for every file under
# crates/*/src, the lines before its first module-level `#[cfg(test)]` (all
# of them when it has none) — the count CHANGES.md entries quote — and, of
# those lines, the `pub (fn|struct|enum|const|static|type|trait|mod)`
# declarations (`pub(crate)` and `pub use` do not count).
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail when a count exceeds its ceiling in
#                            scripts/loc-budget.txt: of the lines that are
#                            not comments, line 1 holds the non-test lines
#                            of crates/runtime/src + crates/server/src,
#                            line 2 those of crates/core/src +
#                            crates/mem/src, and every further line
#                            `<crate> <lines> <pub>` the two ceilings of
#                            crates/<crate>/src
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # "<non-test lines> <pub declarations>" of the .rs files under the given directories
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { test = 0 }
            /^#\[cfg\(test\)\]/ { test = 1 }
            test { next }
            { n++ }
            /^[[:space:]]*pub (fn|struct|enum|const|static|type|trait|mod) / { p++ }
            END { print n + 0, p + 0 }'
}

declare -A lines pubs
printf '%-24s %6s %5s\n' '' lines pub
for dir in crates/*/src; do
    read -r n p < <(count "$dir")
    name=${dir#crates/}
    name=${name%/src}
    lines[$name]=$n
    pubs[$name]=$p
    printf '%-24s %6d %5d\n' "$dir" "$n" "$p"
done
read -r serving _ < <(count crates/runtime/src crates/server/src)
printf '%-24s %6d\n' 'runtime + server' "$serving"
read -r device _ < <(count crates/core/src crates/mem/src)
printf '%-24s %6d\n' 'core + mem' "$device"

if [ "${1:-}" = --check ]; then
    mapfile -t budgets < <(grep -v '^#' scripts/loc-budget.txt)
    status=0
    over() { # what, count, budget
        if [ "$2" -gt "$3" ]; then
            echo "$1: $2, over the budget of $3" >&2
            status=1
        fi
    }
    over 'crates/runtime/src + crates/server/src non-test lines' "$serving" "${budgets[0]}"
    over 'crates/core/src + crates/mem/src non-test lines' "$device" "${budgets[1]}"
    declare -A budgeted
    for row in "${budgets[@]:2}"; do
        read -r name max_lines max_pub <<<"$row"
        [ -n "$name" ] || continue
        if [ -z "${lines[$name]+set}" ]; then
            echo "scripts/loc-budget.txt: no crate crates/$name/src" >&2
            status=1
            continue
        fi
        budgeted[$name]=1
        over "crates/$name/src non-test lines" "${lines[$name]}" "$max_lines"
        over "crates/$name/src pub declarations" "${pubs[$name]}" "$max_pub"
    done
    for name in "${!lines[@]}"; do
        if [ "$name" != bench ] && [ -z "${budgeted[$name]+set}" ]; then
            echo "crates/$name/src has no ceiling in scripts/loc-budget.txt" >&2
            status=1
        fi
    done
    if [ "$status" -ne 0 ]; then
        echo "(scripts/loc-budget.txt; a PR that raises a ceiling says why)" >&2
    fi
    exit "$status"
fi
