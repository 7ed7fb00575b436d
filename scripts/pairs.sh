#!/usr/bin/env bash
# Alternating A/B pairs of one bench_e2e workload: a base revision against
# the working tree.
# Usage: scripts/pairs.sh <workload> <n> [rev]
#
# Builds bench_e2e at `rev` (default HEAD) in a temporary checkout
# (`git archive`, removed on exit) and in the working tree, each with its
# own target directory, then runs `n` pairs of `bench_e2e run --workload
# <workload> --trace 0` at bench_e2e's own run length, alternating which
# side runs first. Every run writes its results under target/pairs/.
# Prints each pair's two medians, each side's median and quartiles over
# the pairs, the ratio of the medians, the change's win count (ties count
# for neither side) and whether the medians differ by more than the base
# side's inter-quartile distance — the rule of a claimed gain.
#
#   PAIRS_METRIC   end-to-end metric to compare (default updates_per_s)
#   PAIRS_SEED     workload seed (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: scripts/pairs.sh <workload> <n> [rev]" >&2
    exit 2
fi
WORKLOAD=$1
N=$2
REV=${3:-HEAD}
METRIC=${PAIRS_METRIC:-updates_per_s}
SEED=${PAIRS_SEED:-1}

BETTER=$(grep -o "\"name\": \"$METRIC\"[^}]*\"better\": \"[a-z]*\"" BENCHMARK.json |
    sed 's/.*"better": "//; s/"$//')
if [[ -z "$BETTER" ]]; then
    echo "pairs: $METRIC is not an end-to-end metric of BENCHMARK.json" >&2
    exit 2
fi

SHA=$(git rev-parse --verify "$REV^{commit}")
ROOT=$PWD
WORK=$ROOT/target/pairs
mkdir -p "$WORK"
BASE_SRC=$(mktemp -d "$WORK/src.XXXXXX")
trap 'rm -rf "$BASE_SRC"' EXIT
git archive "$SHA" | tar -x -C "$BASE_SRC"

# Two checkouts must not share a target directory: cargo would reuse one
# side's build of a path dependency for the other.
build() {
    CARGO_TARGET_DIR=$2 cargo build -q --release --offline --locked \
        --manifest-path "$1/bench_e2e/Cargo.toml"
}
echo "pairs: building bench_e2e at ${SHA:0:12} and in the working tree"
build "$BASE_SRC" "$WORK/build-base"
build "$ROOT" "$WORK/build-work"

# Runs one side from its own checkout (bench_e2e reads BENCHMARK.json from
# the working directory) and prints the metric's median; a run with a
# failed operation or check stops the script.
run() {
    local side=$1 dir=$2 bin=$3 out=$WORK/$1-$4
    (cd "$dir" && "$bin" run --workload "$WORKLOAD" --trace 0 --seed "$SEED" \
        --out "$out" >"$out.log" 2>&1) || {
        echo "pairs: $side run $4 failed, see $out.log" >&2
        exit 1
    }
    local detail=$out/$WORKLOAD.trace0.json
    if ! grep -q '"correct": true' "$detail"; then
        echo "pairs: $side run $4 was not correct, see $detail" >&2
        exit 1
    fi
    grep -o "\"$METRIC\": {[^}]*}" "$detail" | sed 's/.*"median": //; s/,.*//'
}

echo "pairs: $WORKLOAD seed $SEED, $METRIC ($BETTER is better)"
printf '%4s %6s %14s %14s %8s\n' pair first base change ratio
BASE_VALUES=()
WORK_VALUES=()
for i in $(seq 1 "$N"); do
    if ((i % 2)); then
        first=base
        b=$(run base "$BASE_SRC" "$WORK/build-base/release/bench_e2e" "$i")
        w=$(run change "$ROOT" "$WORK/build-work/release/bench_e2e" "$i")
    else
        first=change
        w=$(run change "$ROOT" "$WORK/build-work/release/bench_e2e" "$i")
        b=$(run base "$BASE_SRC" "$WORK/build-base/release/bench_e2e" "$i")
    fi
    BASE_VALUES+=("$b")
    WORK_VALUES+=("$w")
    awk -v i="$i" -v f="$first" -v b="$b" -v w="$w" \
        'BEGIN { printf "%4d %6s %14.4f %14.4f %8.3f\n", i, f, b, w, w / b }'
done

# Median and quartiles as Python's statistics.quantiles(n=4) computes them
# (the exclusive method), like bench_e2e's own summaries.
summary() {
    printf '%s\n' "$@" | sort -g | awk '
        { v[NR] = $1 }
        function q(i,   m, j, d) {
            if (NR < 2) return v[1]
            m = NR + 1; j = int(i * m / 4)
            if (j < 1) j = 1
            if (j > NR - 1) j = NR - 1
            d = i * m - 4 * j
            return (v[j] * (4 - d) + v[j + 1] * d) / 4
        }
        END { printf "%.4f %.4f %.4f\n", q(2), q(1), q(3) }'
}
read -r BM BQ1 BQ3 <<<"$(summary "${BASE_VALUES[@]}")"
read -r WM WQ1 WQ3 <<<"$(summary "${WORK_VALUES[@]}")"
WINS=0
for i in "${!BASE_VALUES[@]}"; do
    if awk -v b="${BASE_VALUES[$i]}" -v w="${WORK_VALUES[$i]}" -v better="$BETTER" \
        'BEGIN { exit !(better == "higher" ? w > b : w < b) }'; then
        WINS=$((WINS + 1))
    fi
done
printf 'base   median %.4f [q1 %.4f, q3 %.4f]\n' "$BM" "$BQ1" "$BQ3"
printf 'change median %.4f [q1 %.4f, q3 %.4f]\n' "$WM" "$WQ1" "$WQ3"
awk -v b="$BM" -v w="$WM" -v iqr="$(awk -v a="$BQ1" -v c="$BQ3" 'BEGIN { print c - a }')" \
    -v wins="$WINS" -v n="$N" -v better="$BETTER" 'BEGIN {
        d = better == "higher" ? w - b : b - w
        printf "ratio %.3f, change wins %d of %d, median gain %.4f vs base IQR %.4f (%s)\n",
            w / b, wins, n, d, iqr, (d > iqr ? "beyond" : "within")
    }'
