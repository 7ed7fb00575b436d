//! Pins whole `run_algorithm` runs on the real-model tasks.
//!
//! The golden traces and reports train a dimension-3 or -32 analytic
//! model and the simtest corpus stays at or below 128 coordinates, so none
//! of them reaches a client whose model is large enough to train off the
//! event loop (DESIGN.md §10.5). These runs do: the cifar-like MLP has
//! 6 506 parameters and the char-LSTM 2 668. Each run is reduced to one
//! FNV-1a fingerprint over every evaluation sample (time, update count,
//! metric and loss bits), the `updates.processed` and `net.bytes`
//! counters and the per-client update counts.
//!
//! The constants were computed before client rounds could run off the
//! event loop, and hold under every thread budget: `scripts/check.sh` runs
//! this test a second time with `SPYKER_THREADS=1`, where every round is
//! inline again. Never edit a constant to make this test pass — a mismatch
//! means a run's arithmetic or its event order changed.

use spyker_repro::experiments::runner::RunResult;
use spyker_repro::experiments::{run_algorithm, Algorithm, RunOptions, Scenario};
use spyker_repro::simnet::SimTime;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fingerprint(run: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, run.samples.len() as u64);
    for s in &run.samples {
        fnv(&mut h, s.time.as_micros());
        fnv(&mut h, s.updates);
        fnv(&mut h, s.metric.to_bits());
        fnv(&mut h, s.loss.to_bits());
    }
    fnv(&mut h, run.metrics.counter("updates.processed"));
    fnv(&mut h, run.metrics.counter("net.bytes"));
    fnv(&mut h, run.client_updates.len() as u64);
    for &n in &run.client_updates {
        fnv(&mut h, n);
    }
    h
}

fn opts(seconds: u64) -> RunOptions {
    RunOptions::standard()
        .with_max_time(SimTime::from_secs(seconds))
        .with_probe_interval(SimTime::from_secs(1))
}

fn check(scenario: &Scenario, seconds: u64, pins: &[(Algorithm, u64)]) {
    let got: Vec<(Algorithm, u64)> = pins
        .iter()
        .map(|&(alg, _)| {
            let run = run_algorithm(alg, scenario, &opts(seconds));
            assert!(
                run.metrics.counter("updates.processed") > 0,
                "{alg}: no update was processed"
            );
            (alg, fingerprint(&run))
        })
        .collect();
    for (&(alg, want), &(_, have)) in pins.iter().zip(&got) {
        assert_eq!(
            have, want,
            "{alg}: fingerprint {have:#018x}, pinned {want:#018x}; all: {got:#x?}"
        );
    }
}

#[test]
fn cifar_runs_are_pinned() {
    let scenario = Scenario::cifar(20, 2, 5);
    check(
        &scenario,
        5,
        &[
            (Algorithm::FedAvg, 0xfa4e_63c7_6cd4_5deb),
            (Algorithm::FedAsync, 0xfaf8_3c85_38ae_2851),
            (Algorithm::HierFavg, 0x5438_71ff_1e45_9255),
            (Algorithm::Spyker, 0x3f59_dd6b_50c4_e21f),
            (Algorithm::SyncSpyker, 0x0d62_0725_9b26_caf4),
        ],
    );
}

#[test]
fn wikitext_runs_are_pinned() {
    let scenario = Scenario::wikitext(8, 2, 3);
    check(
        &scenario,
        4,
        &[
            (Algorithm::Spyker, 0xc2a1_b7ac_2e62_45b1),
            (Algorithm::FedAvg, 0x7581_aee2_d8f0_3d89),
        ],
    );
}
