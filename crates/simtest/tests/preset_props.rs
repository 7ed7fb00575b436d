//! Property battery for the scenario library (DESIGN.md §17).
//!
//! Three guarantees, each checked over randomized inputs:
//!
//! 1. *Determinism* — the same `(preset, seed)` pair always expands to the
//!    same scenario, and two runs of that scenario produce the same
//!    fingerprint.
//! 2. *RON identity* — the new scenario fields (availability windows,
//!    compute tiers, bandwidth cap, preset tag) survive a serialize/parse
//!    round trip exactly, for arbitrary field values, not just the ones
//!    the preset generators happen to produce.
//! 3. *Backward compatibility* — a scenario file written before the
//!    scenario library existed (no `avail`/`compute_mul`/`bandwidth_bps`/
//!    `preset` lines) still parses, and replays byte-identically to its
//!    modern serialization.
//!
//! Plus the CI-scale smoke: every preset runs oracle-green over a block of
//! seeds, and the committed regression corpus reproduces its pinned
//! fingerprints (the same gate `simtest --check-pinned` enforces, so a
//! plain `cargo test` catches drift too).

use proptest::prelude::*;
use spyker_simnet::{AvailWindow, SimTime};
use spyker_simtest::{run_scenario, RunOutcome, ScenarioPreset, SimScenario};

fn fingerprint(sc: &SimScenario) -> u64 {
    match run_scenario(sc, 200_000) {
        RunOutcome::Clean(stats) => stats.fingerprint,
        RunOutcome::Violated(v) => panic!("seed {}: {v}", sc.seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same `(preset, seed)` in, same scenario out — and the scenario
    /// itself runs to the same fingerprint twice.
    #[test]
    fn preset_expansion_and_replay_are_deterministic(
        seed in 0u64..500,
        which in 0usize..ScenarioPreset::ALL.len(),
    ) {
        let preset = ScenarioPreset::ALL[which];
        let a = preset.generate(seed);
        prop_assert_eq!(&a, &preset.generate(seed));
        prop_assert_eq!(fingerprint(&a), fingerprint(&a));
    }

    /// Arbitrary values of the new fields survive the RON round trip.
    /// Windows are attached to client nodes of the seed's own topology, so
    /// the scenario stays well-formed.
    #[test]
    fn new_scenario_fields_round_trip_through_ron(
        seed in 0u64..500,
        windows in proptest::collection::vec(
            (0usize..64, 0u64..20_000_000, 1u64..5_000_000),
            0..6,
        ),
        muls in proptest::collection::vec(1000u64..6000, 0..8),
        bandwidth_raw in 0u64..10_000_000,
        tag_idx in 0usize..4,
    ) {
        // The vendored proptest has no Option/string strategies; encode
        // them by hand: 0 means None, and tags come from a fixed pool.
        let bandwidth = (bandwidth_raw > 0).then(|| bandwidth_raw + 999);
        let tag = [None, Some("diurnal"), Some("some_custom_name"), Some("x")][tag_idx]
            .map(String::from);
        let mut sc = SimScenario::generate(seed);
        sc.avail_windows = windows
            .iter()
            .map(|&(node, start, len)| AvailWindow {
                node: sc.n_servers + node % sc.n_clients,
                start: SimTime::from_micros(start),
                end: SimTime::from_micros(start + len),
            })
            .collect();
        // A tier list is empty or covers every client.
        if !muls.is_empty() {
            sc.compute_mul = (0..sc.n_clients).map(|i| muls[i % muls.len()]).collect();
        }
        sc.bandwidth_bps = bandwidth;
        sc.preset = tag;
        let ron = sc.to_ron();
        let back = SimScenario::from_ron(&ron)
            .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{ron}"));
        prop_assert_eq!(back, sc);
    }

    /// A pre-scenario-library RON file parses to the same scenario, and
    /// that scenario replays byte-identically.
    #[test]
    fn legacy_ron_files_parse_and_replay_identically(seed in 0u64..200) {
        let sc = SimScenario::generate(seed);
        let legacy: String = sc
            .to_ron()
            .lines()
            .filter(|l| {
                !l.contains("avail")
                    && !l.contains("compute_mul")
                    && !l.contains("bandwidth_bps")
                    && !l.contains("preset")
            })
            .map(|l| format!("{l}\n"))
            .collect();
        prop_assert_ne!(&legacy, &sc.to_ron(), "filter removed nothing");
        let parsed = SimScenario::from_ron(&legacy)
            .unwrap_or_else(|e| panic!("seed {seed}: legacy parse failed: {e}"));
        prop_assert_eq!(&parsed, &sc);
        prop_assert_eq!(fingerprint(&parsed), fingerprint(&sc));
    }
}

/// Every preset is oracle-green across a block of seeds — the CI-scale
/// version of the randomized sweep `scripts/check.sh` runs.
#[test]
fn every_preset_is_oracle_green_over_a_seed_block() {
    for preset in ScenarioPreset::ALL {
        for seed in 0..8 {
            let sc = preset.generate(seed);
            if let RunOutcome::Violated(v) = run_scenario(&sc, 200_000) {
                panic!("preset {} seed {seed}: {v}", preset.name());
            }
        }
    }
}

/// The committed corpus files match their generators and reproduce their
/// pinned fingerprints — `cargo test` catches regression-corpus drift
/// without needing the `--check-pinned` CLI gate.
#[test]
fn committed_corpus_reproduces_the_pinned_fingerprints() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    for preset in ScenarioPreset::ALL {
        let path = dir.join(format!("{}.ron", preset.name()));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {} ({e}); regenerate with `simtest --write-scenarios scenarios`",
                path.display()
            )
        });
        let generated = preset.generate(preset.pinned_seed());
        assert!(
            generated.to_ron() == text,
            "{} is not byte-for-byte the RON of generate({}); regenerate with \
             `simtest --write-scenarios`",
            path.display(),
            preset.pinned_seed()
        );
        let sc = SimScenario::from_ron(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        assert_eq!(
            sc,
            generated,
            "{} drifted from generate({}); regenerate with `simtest --write-scenarios`",
            path.display(),
            preset.pinned_seed()
        );
        assert_eq!(
            fingerprint(&sc),
            preset.pinned_fingerprint(),
            "{}: end-state fingerprint changed; if intentional, refresh with \
             `simtest --check-pinned --update-pinned`",
            preset.name()
        );
    }
}
