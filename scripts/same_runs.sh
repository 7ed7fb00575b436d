#!/usr/bin/env bash
# Same runs, two builds: the simtest sweeps of scripts/check.sh at a base
# revision and in the working tree, compared seed by seed.
# Usage: scripts/same_runs.sh [rev]
#
# Builds simtest at `rev` (default HEAD) in a temporary checkout
# (`git archive`, removed on exit) and in the working tree, each with its
# own target directory under target/same_runs/, then runs the default
# (64 seeds), churn (32 seeds) and codec (32 seeds) sweeps on both builds
# at check.sh's event budget, without its time cap, so every seed runs.
# Diffs the per-seed `seed N: ...` lines, which carry each run's end-state
# fingerprint. Then runs the coded 100k-client scale run on both builds,
# the one run here whose traffic shares flow-level trunks, and diffs its
# `scale: ...` line (events, updates, fingerprint). Exits 1 on any
# difference or failed run. A change meant to leave the protocol's
# behaviour alone must pass this.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 1 ]]; then
    echo "usage: scripts/same_runs.sh [rev]" >&2
    exit 2
fi
SHA=$(git rev-parse --verify "${1:-HEAD}^{commit}")
ROOT=$PWD
WORK=$ROOT/target/same_runs
mkdir -p "$WORK"
BASE_SRC=$(mktemp -d "$WORK/src.XXXXXX")
trap 'rm -rf "$BASE_SRC"' EXIT
git archive "$SHA" | tar -x -C "$BASE_SRC"

# Two checkouts must not share a target directory: cargo would reuse one
# side's build of a path dependency for the other.
build() {
    CARGO_TARGET_DIR=$2 cargo build -q --release --offline --locked \
        --manifest-path "$1/Cargo.toml" -p spyker-simtest --bin simtest
}
echo "same_runs: building simtest at ${SHA:0:12} and in the working tree"
build "$BASE_SRC" "$WORK/build-base"
build "$ROOT" "$WORK/build-work"

STATUS=0
TOTAL=0
SAME=0
for sweep in "--seeds 64" "--churn --seeds 32" "--codec --seeds 32"; do
    name=$(tr -d ' -' <<<"$sweep")
    for side in base work; do
        # shellcheck disable=SC2086 # the sweep's flags split on purpose
        if ! "$WORK/build-$side/release/simtest" $sweep --budget-events 200k \
            --out "$WORK/repro-$side" >"$WORK/$side-$name.log" 2>&1; then
            echo "same_runs: $side sweep '$sweep' failed, see $WORK/$side-$name.log" >&2
            STATUS=1
        fi
        grep '^seed ' "$WORK/$side-$name.log" >"$WORK/$side-$name.seeds" || true
    done
    lines=$(wc -l <"$WORK/work-$name.seeds")
    same=$(comm -12 <(sort "$WORK/base-$name.seeds") <(sort "$WORK/work-$name.seeds") | wc -l)
    TOTAL=$((TOTAL + lines))
    SAME=$((SAME + same))
    if diff "$WORK/base-$name.seeds" "$WORK/work-$name.seeds" >"$WORK/$name.diff"; then
        echo "same_runs: '$sweep': $lines of $lines per-seed lines identical"
    else
        echo "same_runs: '$sweep': $same of $lines per-seed lines identical, see $WORK/$name.diff"
        STATUS=1
    fi
done
echo "same_runs: $SAME of $TOTAL sweep fingerprints identical"

SCALE="--scale 100k --cohort 128 --codec --budget-events 10m"
for side in base work; do
    # shellcheck disable=SC2086 # the run's flags split on purpose
    if ! "$WORK/build-$side/release/simtest" $SCALE >"$WORK/$side-scale.log" 2>&1; then
        echo "same_runs: $side run '$SCALE' failed, see $WORK/$side-scale.log" >&2
        STATUS=1
    fi
    grep '^scale: ' "$WORK/$side-scale.log" >"$WORK/$side-scale.line" || true
done
if [[ -s $WORK/work-scale.line ]] && diff "$WORK/base-scale.line" "$WORK/work-scale.line" \
    >"$WORK/scale.diff"; then
    echo "same_runs: '$SCALE': $(cat "$WORK/work-scale.line") on both builds"
else
    echo "same_runs: '$SCALE': the scale lines differ, see $WORK/scale.diff"
    STATUS=1
fi
exit $STATUS
