#!/usr/bin/env bash
# Repo hygiene gate: formatting and lints, as CI would run them.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# Size gate: no `src` file of any workspace crate or of the umbrella crate
# over 1,200 lines, tests included (ROADMAP item 5).
scripts/loc.sh --gate

# Workspace-member unit, property and handler-level tests: the root
# `cargo test` only runs the umbrella crate's integration tests, so the
# suites guarding the protocol core (`core::ingest` and the servers built on
# it, the codec property batteries, the four-server ingest battery in
# `crates/baselines/tests`) have to be named explicitly. Likewise the
# simulator and the simulation-test harness: the oracle unit tests (each
# of the nine server-state folds in `simtest/src/oracle/` fed hand-built
# server snapshots that hold and that fire, the adapter's re-read rule), the
# old-vs-new differential over the pinned corpus, 32 fuzz seeds and the
# token injection, the oracle names against DESIGN.md §11.1, the
# scale-runner and shrinker tests, the wheel and preset property
# batteries. And the tensor
# crate: the GEMM property battery and the bit-for-bit differential tests
# that hold the lane-blocked order-statistic kernel to its scalar
# reference (DESIGN.md §10.4), the in-place GEMM regime to the blocked one
# (§10.2), and the sampled-floor top-k to a full sort at short and long
# lengths, fallback included (§16.1). And what sits on top of the kernels —
# the model zoo (gradient checks, the zero-allocation step, the pinned
# training fingerprints), the datasets and the experiment runners. And the
# transport crate's own unit tests (the TCP envelope, hello frames,
# class-aware queue shedding, the fixed reconnect back-off schedule, and
# idle peers kept connected by each side's own pings, which no reader
# answers): the root `tcp_live` and `transport_live` suites drive it only
# from outside.
cargo test -q --offline -p spyker-core -p spyker-baselines
cargo test -q --offline -p spyker-simtest -p spyker-simnet
cargo test -q --offline -p spyker-tensor
cargo test -q --offline -p spyker-models -p spyker-data -p spyker-experiments
cargo test -q --offline -p spyker-transport
# The vendored stand-ins are workspace members with unit tests of their
# own; the wire codec reads through `bytes`' `Buf for &[u8]`.
cargo test -q --offline -p bytes -p crossbeam -p rand -p proptest

# Real-model and encoded-round run pins (see DESIGN.md §10.5): the same
# constants under the default thread budget, where DES clients train and
# encode on pool workers, and under a budget of one, where every round runs
# inline on the event loop.
cargo test -q --offline --test real_model_pins --test codec_pins
SPYKER_THREADS=1 cargo test -q --offline --test real_model_pins --test codec_pins
# The suites that drive the pool directly, once more under a budget of one,
# where no worker exists: a detached job runs inside `spawn`, and a
# computed send's job has run before the send returns. The models' suite
# holds its training pins under that budget too.
SPYKER_THREADS=1 cargo test -q --offline -p spyker-tensor -p spyker-core -p spyker-simnet -p spyker-models

# The benchmark package is its own workspace: its tests are the API-drift
# gate (it hand-wires the public server/deploy/agg/codec items) and the
# wrapper-transparency gate (traced runs must equal untraced ones).
cargo test -q --offline --locked --manifest-path bench_e2e/Cargo.toml

# Byzantine-robustness integration tests (adversarial clients vs the
# validation gate + robust aggregation pipeline; see DESIGN.md §8).
cargo test -q --release --test byzantine

# Observability layer (see DESIGN.md §12): typed-registry unit tests,
# histogram/series property tests, and the catalog↔DESIGN.md sync gate —
# then the golden run-report and span-trace pins (byte-identical reports
# across builds) and the metric-catalog registration gate.
cargo test -q --release -p spyker-obs
# The span store's trace dump only exists under the `trace` feature.
cargo test -q --release -p spyker-obs --features trace --test span_model
cargo test -q --release --test golden_report --test metric_catalog

# The smoke runner enforces the kernel regression gates — three paired
# ratios, each against a frozen reference: tiled-vs-naive GEMM on 128×128,
# network-vs-scalar trimmed mean on 8×65536, and sampled-vs-full-histogram
# top-k on an encoder's 65536-entry residual input; each must stay ≥ 0.75×
# the one recorded in BENCH_tensor.json, see DESIGN.md §10.4 — and, when
# they pass, refreshes BENCH_tensor.json at the repo root.
cargo run -q --release -p spyker-bench --bin bench_smoke BENCH_tensor.json

# Scheduler scalability gate (see DESIGN.md §15): paired heap-vs-wheel
# timer-storm runs at 1k/10k/100k nodes with a 20×-ballast pending set.
# The timer wheel must sustain ≥ 5× the heap's events/sec at 100k;
# refreshes BENCH_simnet.json at the repo root.
cargo run -q --release -p spyker-bench --bin bench_simnet BENCH_simnet.json

# Deterministic simulation-test sweep (see DESIGN.md §11): 64 seeded
# random scenarios under the protocol-invariant oracles. On a violation
# the failing scenario is shrunk and written to target/simtest/ as a
# repro_<seed>.ron. Time-capped so a pathological environment cannot hang
# CI; determinism is per-seed, so a capped sweep still checks an exact
# prefix of the full one.
cargo run -q --release -p spyker-simtest --bin simtest -- \
    --seeds 64 --budget-events 200k --time-cap-secs 120

# Membership-churn sweep (see DESIGN.md §14): the same oracle suite over
# 32 scenarios with scheduled server joins and voluntary leaves layered
# on top of each seed's usual faults — token conservation, age
# conservation and the exchange ledger must hold across ring epochs.
cargo run -q --release -p spyker-simtest --bin simtest -- \
    --churn --seeds 32 --budget-events 200k --time-cap-secs 120

# Codec sweep (see DESIGN.md §16): 32 scenarios with randomized
# update-compression pipelines (quantization, top-k sparsification, delta
# encoding) layered on each seed's usual faults. The byte-accounting
# oracle holds `net.bytes.encoded ≤ net.bytes.raw` at every event and
# reconciles the counters against the per-client encoder ledgers at the
# end of each run.
cargo run -q --release -p spyker-simtest --bin simtest -- \
    --codec --seeds 32 --budget-events 200k --time-cap-secs 120

# Scenario-library gates (see DESIGN.md §17). First the pinned regression
# corpus: every committed scenarios/<preset>.ron must match its generator
# byte-for-byte and reproduce its golden end-state fingerprint — workload
# drift in any preset is a hard failure, refreshed only deliberately via
# `--write-scenarios` / `--update-pinned`. Then a 16-seed randomized sweep
# per preset under the full oracle suite (availability oracle included),
# time-capped like the other sweeps.
cargo run -q --release -p spyker-simtest --bin simtest -- --check-pinned
for preset in diurnal device_tiers flash_crowd regional_outage staleness_storm; do
    cargo run -q --release -p spyker-simtest --bin simtest -- \
        --preset "$preset" --seeds 16 --budget-events 200k --time-cap-secs 60
done

# 100k-logical-client scale smoke (see DESIGN.md §15): one cohort-batched
# scenario under the full per-event oracle suite — wheel scheduler,
# flow-shared links, 782 cohort actors, clients uploading through the
# paper codec pipeline (`delta → topk(1%) → q8`, so the codec byte oracle
# runs at scale too). Must finish oracle-green, process updates, and clear
# a 20k events/sec floor (~10× headroom below the measured rate, so only a
# real regression trips it). Skippable on machines where a release-mode
# throughput floor is meaningless: SPYKER_SKIP_SCALE=1.
if [[ "${SPYKER_SKIP_SCALE:-0}" != "1" ]]; then
    cargo run -q --release -p spyker-simtest --bin simtest -- \
        --scale 100k --cohort 128 --codec --budget-events 10m \
        --min-events-per-sec 20k
else
    echo "SPYKER_SKIP_SCALE=1 — skipping the 100k-client scale smoke"
fi

# End-to-end ledger (see bench_e2e/README.md): one full `bench_e2e run` —
# four workloads, end-to-end and traced pass, ~3 min — judged against the
# committed BENCH_e2e.json with the bounds of BENCHMARK.json. Regress-only:
# `compare` exits non-zero when an end-to-end metric is worse than the
# baseline by more than its bound, and says `unresolved`, not `regressed`,
# when the runs spread wider than the bound. A PR that claims a gain
# refreshes the baseline: cp bench_e2e/out/results.json BENCH_e2e.json.
# Skippable where wall-clock throughput means nothing: SPYKER_SKIP_E2E=1,
# which still builds the benchmark.
if [[ "${SPYKER_SKIP_E2E:-0}" != "1" ]]; then
    cargo run -q --release --offline --locked --manifest-path bench_e2e/Cargo.toml -- run
    cargo run -q --release --offline --locked --manifest-path bench_e2e/Cargo.toml -- \
        compare BENCH_e2e.json bench_e2e/out/results.json
else
    echo "SPYKER_SKIP_E2E=1 — skipping the bench_e2e regression gate; building it only"
    # The benchmark's lock file is frozen: an API rename, or a
    # `[dependencies]` edit in any crate it reaches, breaks this build.
    cargo build -q --release --offline --locked --manifest-path bench_e2e/Cargo.toml
fi

# Paired speed check (ROADMAP item 10): three alternating pairs per
# workload, this tree against its merge base with main, each workload's
# headline metric in the per-pair table. `pairs.sh` exits non-zero when the
# change's median of any end-to-end metric is worse than the base's by
# more than that metric's bound in BENCHMARK.json.
# Unlike the committed-file gate above it holds on any machine, because
# both sides run on this one. ~8 min; skipped with SPYKER_SKIP_E2E=1.
if [[ "${SPYKER_SKIP_E2E:-0}" != "1" ]]; then
    PAIRS_BASE=$(git merge-base HEAD main)
    scripts/pairs.sh des_train_4s100c 3 "$PAIRS_BASE"
    PAIRS_METRIC=events_per_s scripts/pairs.sh des_scale_100k 3 "$PAIRS_BASE"
    scripts/pairs.sh des_bigmodel_codec 3 "$PAIRS_BASE"
    scripts/pairs.sh tcp_loopback_2s8c 3 "$PAIRS_BASE"
else
    echo "SPYKER_SKIP_E2E=1 — skipping the paired speed check"
fi

# Multi-process TCP soak (see DESIGN.md §13): 2 servers + 6 clients + a
# malformed-frame attacker on localhost, one server SIGKILLed and
# restarted mid-training. Skippable where spawning processes or binding
# sockets is off-limits: SPYKER_SKIP_SOAK=1.
./scripts/soak.sh
