#!/usr/bin/env bash
# Line counts of the Rust sources, as ROADMAP.md tracks them.
# Usage: scripts/loc.sh [file.rs ...]
#        scripts/loc.sh --gate
#
# For `core`, `simnet`, `transport` and every crate under crates/ together:
# the total lines of the `.rs` files under `src/`, and their non-test
# lines, each file counted up to its first `#[cfg(test)]` line. Then every
# `src` file over 1,200 lines. Files given as arguments are listed one by
# one with the same two counts.
#
# With --gate it prints nothing else: it lists the files over 1,200 lines
# under the `src` of `core`, `simnet` and `transport`, and exits 1 if
# there are any.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<total> <non-test>" for the files named on stdin.
count() {
    xargs -r awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { total++; if (!in_test) code++ }
        END { printf "%d %d\n", total, code }
    '
}

# Lists the `.rs` files under the given directories that are over 1,200
# lines, longest first.
over_limit() {
    find "$@" -name '*.rs' -print0 | xargs -0 wc -l |
        awk '$2 != "total" && $1 > 1200 { printf "  %6d %s\n", $1, $2 }' | sort -rn
}

if [[ "${1:-}" == --gate ]]; then
    over=$(over_limit crates/core/src crates/simnet/src crates/transport/src)
    if [[ -n "$over" ]]; then
        echo "src files over 1200 lines in core, simnet or transport:"
        echo "$over"
        exit 1
    fi
    exit 0
fi

printf '%-12s %8s %9s\n' crate total non-test
for crate in core simnet transport; do
    read -r total code < <(find "crates/$crate/src" -name '*.rs' | count)
    printf '%-12s %8d %9d\n' "$crate" "$total" "$code"
done
read -r total code < <(find crates/*/src -name '*.rs' | count)
printf '%-12s %8d %9d\n' "all crates" "$total" "$code"

echo
echo "src files over 1200 lines:"
over_limit crates/*/src src

if (($# > 0)); then
    echo
    printf '%-40s %8s %9s\n' file total non-test
    for f in "$@"; do
        read -r total code < <(echo "$f" | count)
        printf '%-40s %8d %9d\n' "$f" "$total" "$code"
    done
fi
