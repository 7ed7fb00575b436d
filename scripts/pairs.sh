#!/usr/bin/env bash
# Alternating A/B pairs of one bench_e2e workload: a base revision against
# the working tree.
# Usage: scripts/pairs.sh <workload> <n> [rev] [--record]
#
# Builds bench_e2e at `rev` (default HEAD) in a checkout of that commit
# (`git archive` into target/pairs/src-<sha>, kept for the next run against
# it) and in the working tree, each with its own target directory, then
# runs `n` pairs of `bench_e2e run --workload <workload> --trace 0` at
# bench_e2e's own run length, alternating which side runs first. Every run
# writes its results under target/pairs/.
# Prints each pair's two medians, each side's median and quartiles over
# the pairs, the ratio of the medians, the change's win count (ties count
# for neither side) and whether the medians differ by more than the base
# side's inter-quartile distance — the rule of a claimed gain. Then, from
# the same runs, each side's median of every end-to-end metric of
# BENCHMARK.json, the base side's quartiles, the ratio of the medians and a
# verdict: `worse than the bound` when the change's median is worse than
# the base's by more than the metric's bound; else `unresolved` when the
# base's runs spread wider than the bound (q3 - q1 > bound x median) and
# not every change run beats every base run, so these runs cannot tell a
# change within the bound from noise; else `ok`.
#
# With --record, appends the run as one entry to BENCH_pairs.json: the
# workload, metric and seed, both revisions (the change is HEAD, marked
# `+dirty` when a build input in the working tree differs from it), n,
# each side's median and quartiles, the per-pair values, the win count and
# the machine (`nproc` and the CPU model from /proc/cpuinfo).
#
# Exits 3 when, on any end-to-end metric, the change's median is worse than
# the base's by more than that metric's bound in BENCHMARK.json (after
# recording, with --record).
#
#   PAIRS_METRIC   end-to-end metric of the per-pair table, the win count
#                  and the record (default updates_per_s)
#   PAIRS_SEED     workload seed (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

RECORD=0
ARGS=()
for arg in "$@"; do
    if [[ $arg == --record ]]; then
        RECORD=1
    else
        ARGS+=("$arg")
    fi
done
if [[ ${#ARGS[@]} -lt 2 || ${#ARGS[@]} -gt 3 ]]; then
    echo "usage: scripts/pairs.sh <workload> <n> [rev] [--record]" >&2
    exit 2
fi
WORKLOAD=${ARGS[0]}
N=${ARGS[1]}
REV=${ARGS[2]:-HEAD}
METRIC=${PAIRS_METRIC:-updates_per_s}
SEED=${PAIRS_SEED:-1}

# Every end-to-end metric (the entries with a bound), one
# "name better bound" line each.
SPECS=$(grep -o '"name": "[a-z_]*"[^}]*"bound": [0-9.]*' BENCHMARK.json |
    sed 's/"name": "\([a-z_]*\)".*"better": "\([a-z]*\)".*"bound": \(.*\)/\1 \2 \3/')
NAMES=($(awk '{ print $1 }' <<<"$SPECS"))
PRIMARY=$(awk -v m="$METRIC" '$1 == m { print NR }' <<<"$SPECS")
if [[ -z "$PRIMARY" ]]; then
    echo "pairs: $METRIC is not an end-to-end metric of BENCHMARK.json" >&2
    exit 2
fi
read -r _ BETTER BOUND <<<"$(sed -n "${PRIMARY}p" <<<"$SPECS")"

SHA=$(git rev-parse --verify "$REV^{commit}")
ROOT=$PWD
WORK=$ROOT/target/pairs
mkdir -p "$WORK"
# One checkout per base commit, kept: a commit's files never change, so
# the next run against the same base (check.sh runs four) reuses its build.
BASE_SRC=$WORK/src-$SHA
if [[ ! -d $BASE_SRC ]]; then
    EXTRACT=$(mktemp -d "$WORK/src.XXXXXX")
    git archive "$SHA" | tar -x -C "$EXTRACT"
    mv "$EXTRACT" "$BASE_SRC"
fi

# Two checkouts must not share a target directory: cargo would reuse one
# side's build of a path dependency for the other.
build() {
    CARGO_TARGET_DIR=$2 cargo build -q --release --offline --locked \
        --manifest-path "$1/bench_e2e/Cargo.toml"
}
# What the change side builds: HEAD, or HEAD plus edits to a build input.
CHANGE=$(git rev-parse HEAD)
if [[ -n "$(git status --porcelain -- Cargo.toml Cargo.lock .cargo src crates vendor bench_e2e)" ]]; then
    CHANGE+=+dirty
fi
echo "pairs: building bench_e2e at ${SHA:0:12} and in the working tree"
build "$BASE_SRC" "$WORK/build-base"
build "$ROOT" "$WORK/build-work"

# Runs one side from its own checkout (bench_e2e reads BENCHMARK.json from
# the working directory) and prints every end-to-end metric's median on one
# line, in NAMES order; a run with a failed operation or check stops the
# script.
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
    local name values=()
    for name in "${NAMES[@]}"; do
        values+=("$(grep -o "\"$name\": {[^}]*}" "$detail" | sed 's/.*"median": //; s/,.*//')")
    done
    echo "${values[*]}"
}

# Column $1 (1-based) of the lines that follow.
column() {
    local j=$1
    shift
    printf '%s\n' "$@" | awk -v j="$j" '{ print $j }'
}

echo "pairs: $WORKLOAD seed $SEED, $METRIC ($BETTER is better)"
printf '%4s %6s %14s %14s %8s\n' pair first base change ratio
BASE_LINES=()
WORK_LINES=()
for i in $(seq 1 "$N"); do
    if ((i % 2)); then
        first=base
        bl=$(run base "$BASE_SRC" "$WORK/build-base/release/bench_e2e" "$i")
        wl=$(run change "$ROOT" "$WORK/build-work/release/bench_e2e" "$i")
    else
        first=change
        wl=$(run change "$ROOT" "$WORK/build-work/release/bench_e2e" "$i")
        bl=$(run base "$BASE_SRC" "$WORK/build-base/release/bench_e2e" "$i")
    fi
    BASE_LINES+=("$bl")
    WORK_LINES+=("$wl")
    b=$(column "$PRIMARY" "$bl")
    w=$(column "$PRIMARY" "$wl")
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
mapfile -t BASE_VALUES < <(column "$PRIMARY" "${BASE_LINES[@]}")
mapfile -t WORK_VALUES < <(column "$PRIMARY" "${WORK_LINES[@]}")
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

if ((RECORD)); then
    CPU=$(grep -m1 '^model name' /proc/cpuinfo 2>/dev/null | sed 's/^[^:]*: *//; s/[\\"]//g' || true)
    CPU=${CPU:+\"$CPU\"}
    PAIRS=""
    for i in "${!BASE_VALUES[@]}"; do
        PAIRS+="${PAIRS:+, }[${BASE_VALUES[$i]}, ${WORK_VALUES[$i]}]"
    done
    ENTRY=$(printf '{"workload": "%s", "metric": "%s", "seed": %s, "base": "%s", "change": "%s", "n": %s, "base_median": %s, "base_q1": %s, "base_q3": %s, "change_median": %s, "change_q1": %s, "change_q3": %s, "wins": %s, "pairs": [%s], "nproc": %s, "cpu": %s, "backfilled": false, "note": null}' \
        "$WORKLOAD" "$METRIC" "$SEED" "$SHA" "$CHANGE" "$N" "$BM" "$BQ1" "$BQ3" \
        "$WM" "$WQ1" "$WQ3" "$WINS" "$PAIRS" "$(nproc)" "${CPU:-null}")
    # One entry a line between the brackets, so appending is line-wise.
    if [[ -s BENCH_pairs.json ]]; then
        sed -i '$d' BENCH_pairs.json
        sed -i '$s/$/,/' BENCH_pairs.json
    else
        echo '[' >BENCH_pairs.json
    fi
    printf '%s\n]\n' "$ENTRY" >>BENCH_pairs.json
    echo "pairs: recorded in BENCH_pairs.json"
fi

# The regression rule of `bench_e2e compare`, on the pairs' medians of
# every end-to-end metric.
echo "every end-to-end metric, medians over the same $N pairs:"
printf '%-14s %14s %14s %14s %14s %8s %6s  %s\n' \
    metric base 'base q1' 'base q3' change ratio bound verdict
WORSE=()
j=0
while read -r name better bound; do
    j=$((j + 1))
    mapfile -t bv < <(column "$j" "${BASE_LINES[@]}")
    mapfile -t wv < <(column "$j" "${WORK_LINES[@]}")
    read -r bm bq1 bq3 <<<"$(summary "${bv[@]}")"
    read -r wm _ <<<"$(summary "${wv[@]}")"
    # Whether every change run beats every base run.
    all_beat=$(printf '%s\n' "${bv[@]/#/b }" "${wv[@]/#/w }" | awk -v better="$better" '
        $1 == "b" { if (nb++ == 0 || $2 < bmin) bmin = $2; if (nb == 1 || $2 > bmax) bmax = $2 }
        $1 == "w" { if (nw++ == 0 || $2 < wmin) wmin = $2; if (nw == 1 || $2 > wmax) wmax = $2 }
        END { print (better == "higher" ? wmin > bmax : wmax < bmin) }')
    verdict=ok
    if awk -v b="$bm" -v w="$wm" -v bound="$bound" -v better="$better" 'BEGIN {
            c = (w - b) / (b < 0 ? -b : b)
            exit !((better == "higher" ? c : -c) < -bound)
        }'; then
        verdict="worse than the bound"
        WORSE+=("$name")
    elif ((!all_beat)) && awk -v b="$bm" -v q1="$bq1" -v q3="$bq3" -v bound="$bound" \
        'BEGIN { exit !(q3 - q1 > bound * (b < 0 ? -b : b)) }'; then
        verdict=unresolved
    fi
    awk -v n="$name" -v b="$bm" -v q1="$bq1" -v q3="$bq3" -v w="$wm" -v bound="$bound" \
        -v v="$verdict" 'BEGIN {
            printf "%-14s %14.4f %14.4f %14.4f %14.4f %8.3f %6.2f  %s\n",
                n, b, q1, q3, w, (b ? w / b : 0), bound, v
        }'
done <<<"$SPECS"
if ((${#WORSE[@]})); then
    echo "pairs: the change is worse than the base by more than the bound on: ${WORSE[*]}" >&2
    exit 3
fi
