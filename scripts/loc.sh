#!/usr/bin/env bash
# Line counts of the Rust sources, as ROADMAP.md tracks them.
# Usage: scripts/loc.sh [file.rs ...]
#        scripts/loc.sh --gate
#
# For `core`, `simnet`, `transport`, those three together (the sum ROADMAP
# tracks against its line target), `baselines` (code that moves between it
# and `core` would vanish from the sum alone), `simtest` and `experiments`
# (ROADMAP's other line aim) and every crate under crates/ together:
# the total lines of the `.rs` files under `src/`, and their non-test
# lines. Test lines are those of an item under `#[cfg(test)]`: an item
# that ends on its own line (`#[cfg(test)] mod reference;`, `use …;`)
# counts alone; an item that spans lines (the trailing `mod tests { … }`)
# counts with the rest of the file. The file a `#[cfg(test)] mod name;`
# declares counts as test throughout. Then every `src` file over 1,200
# lines. Files given as arguments are listed one by one with the same two
# counts.
#
# With --gate it prints nothing else: it lists the files over 1,200 lines
# under `src` of every crate under crates/ and of the umbrella crate
# (`src/`), and exits 1 if there are any.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the files that `#[cfg(test)] mod name;` declarations make
# test-only: `name.rs` and `name/mod.rs` beside a `lib.rs`, `main.rs` or
# `mod.rs`, else in the directory named after the declaring file. A
# `#[path]` attribute points elsewhere, so those declarations are skipped.
test_modules() {
    find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { cfg = 0; path = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = 1 }
        /^[[:space:]]*#\[path/ { path = 1 }
        cfg && !path && match($0, /mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/^mod[[:space:]]+/, "", name)
            sub(/[[:space:]]*;$/, "", name)
            dir = FILENAME
            sub(/[^\/]*$/, "", dir)
            base = FILENAME
            sub(/^.*\//, "", base)
            sub(/\.rs$/, "", base)
            if (base != "lib" && base != "main" && base != "mod") dir = dir base "/"
            print dir name ".rs"
            print dir name "/mod.rs"
        }
        !/^[[:space:]]*#\[[^]]*\][[:space:]]*$/ { cfg = 0; path = 0 }
    '
}
TEST_MODULES=$(test_modules)

# Prints "<total> <non-test>" for the files named on stdin.
count() {
    xargs -r awk -v modules="$TEST_MODULES" '
        BEGIN { n = split(modules, m, "\n"); for (i = 1; i <= n; i++) module[m[i]] = 1 }
        FNR == 1 { in_test = (FILENAME in module); item = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { item = 1 }
        { total++; if (!in_test && !item) code++ }
        item && !/^[[:space:]]*#\[[^]]*\][[:space:]]*$/ {
            if (!/;[[:space:]]*$/) in_test = 1
            item = 0
        }
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
    over=$(over_limit crates/*/src src)
    if [[ -n "$over" ]]; then
        echo "src files over 1200 lines:"
        echo "$over"
        exit 1
    fi
    exit 0
fi

printf '%-22s %8s %9s\n' crate total non-test
for crate in core simnet transport; do
    read -r total code < <(find "crates/$crate/src" -name '*.rs' | count)
    printf '%-22s %8d %9d\n' "$crate" "$total" "$code"
done
read -r total code < <(find crates/{core,simnet,transport}/src -name '*.rs' | count)
printf '%-22s %8d %9d\n' core+simnet+transport "$total" "$code"
for crate in baselines simtest experiments; do
    read -r total code < <(find "crates/$crate/src" -name '*.rs' | count)
    printf '%-22s %8d %9d\n' "$crate" "$total" "$code"
done
read -r total code < <(find crates/*/src -name '*.rs' | count)
printf '%-22s %8d %9d\n' "all crates" "$total" "$code"

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
