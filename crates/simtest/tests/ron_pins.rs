//! Byte pins of the scenario RON format.
//!
//! `SimScenario::to_ron` output is a stored format: shrunk reproducers and
//! the `scenarios/` corpus are committed as its bytes. A writer change
//! whose output still parses would pass every round-trip test, so the
//! bytes themselves are pinned here: a hand-built scenario that sets every
//! variant, committed as `golden/every_variant.ron`, and an FNV-1a digest
//! of the output of every generator over 128 seeds. Never edit the golden
//! file or the digests: a mismatch means the format changed.

use spyker_core::agg::AggregationStrategy;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::fault::{
    ByzantineAttack, ByzantineClient, ConnWindow, CrashEvent, PartitionWindow, ScriptedDrop,
};
use spyker_simnet::{AvailWindow, FaultPlan, Region, SimTime};
use spyker_simtest::{Injection, ScenarioPreset, SimScenario};

const EVERY_VARIANT: &str = include_str!("golden/every_variant.ron");

/// A scenario that sets every field to a non-default value and holds
/// every fault kind and every Byzantine attack. Node ids stay inside the
/// 3 servers + 4 clients + 1 standby it builds.
fn every_variant() -> SimScenario {
    let t = SimTime::from_micros;
    SimScenario {
        seed: 4242,
        n_servers: 3,
        n_clients: 4,
        dim: 5,
        horizon: t(12_000_000),
        uniform_latency_ms: None,
        jitter_ms: 7,
        h_inter: 2.5,
        h_intra: 12.0,
        gossip_backoff: 3,
        recovery: true,
        aggregation: AggregationStrategy::TrimmedMean {
            batch: 3,
            trim_ratio: 0.25,
        },
        max_delta_norm: Some(12.5),
        train_delay_ms: vec![100, 200, 300, 400],
        targets: vec![-1.0, 0.1, 1e-7, 0.75],
        faults: FaultPlan {
            loss_prob: 0.05,
            link_loss: vec![(3, 0, 0.5), (0, 4, 1.0)],
            drops: vec![
                ScriptedDrop::NthOnLink {
                    from: 3,
                    to: 0,
                    nth: 2,
                },
                ScriptedDrop::LinkWindow {
                    from: 1,
                    to: 5,
                    start: t(1_000_000),
                    end: t(2_500_000),
                },
            ],
            partitions: vec![PartitionWindow {
                a: Region::Paris,
                b: Region::Sydney,
                start: t(2_000_000),
                end: t(4_000_000),
            }],
            conns: vec![ConnWindow {
                a: 0,
                b: 6,
                start: t(2_000_000),
                end: t(3_000_000),
            }],
            crashes: vec![
                CrashEvent {
                    node: 1,
                    at: t(4_000_000),
                    restart: Some(t(6_000_000)),
                },
                CrashEvent {
                    node: 7,
                    at: t(9_000_000),
                    restart: None,
                },
            ],
            byzantine: vec![
                ByzantineClient {
                    node: 3,
                    attack: ByzantineAttack::SignFlip,
                },
                ByzantineClient {
                    node: 4,
                    attack: ByzantineAttack::Scale { factor: 5.0 },
                },
                ByzantineClient {
                    node: 5,
                    attack: ByzantineAttack::GaussianNoise { sigma: 0.5 },
                },
                ByzantineClient {
                    node: 6,
                    attack: ByzantineAttack::NanInject { prob: 0.25 },
                },
            ],
        },
        inject: Some(Injection::DuplicateToken {
            at: t(3_000_000),
            server: 2,
        }),
        joins: vec![t(5_000_000)],
        leaves: vec![(1, t(8_000_000))],
        codec: Some(CodecConfig::parse("delta,topk=0.1,q4,stochastic,ef,seed=99").unwrap()),
        avail_windows: vec![
            AvailWindow {
                node: 4,
                start: t(1_000_000),
                end: t(2_000_000),
            },
            AvailWindow {
                node: 6,
                start: t(3_000_000),
                end: t(7_000_000),
            },
        ],
        compute_mul: vec![1000, 2500, 4000, 1500],
        bandwidth_bps: Some(250_000),
        preset: Some("every_variant".to_string()),
    }
}

#[test]
fn every_variant_scenario_writes_its_golden_bytes_and_reads_back() {
    let sc = every_variant();
    assert_eq!(sc.to_ron(), EVERY_VARIANT);
    assert_eq!(SimScenario::from_ron(EVERY_VARIANT).unwrap(), sc);
}

/// A scenario holds one aggregation strategy; the golden file has
/// `TrimmedMean`, and each strategy's line is pinned here.
#[test]
fn every_aggregation_strategy_writes_its_pinned_line() {
    let cases = [
        (AggregationStrategy::Mean, "    aggregation: Mean,\n"),
        (
            AggregationStrategy::TrimmedMean {
                batch: 3,
                trim_ratio: 0.25,
            },
            "    aggregation: TrimmedMean(batch: 3, trim_ratio: 0.25),\n",
        ),
        (
            AggregationStrategy::Median { batch: 4 },
            "    aggregation: Median(batch: 4),\n",
        ),
        (
            AggregationStrategy::ClippedMean {
                batch: 2,
                max_norm: 7.5,
            },
            "    aggregation: ClippedMean(batch: 2, max_norm: 7.5),\n",
        ),
    ];
    let golden_line = "    aggregation: TrimmedMean(batch: 3, trim_ratio: 0.25),\n";
    assert!(EVERY_VARIANT.contains(golden_line));
    for (aggregation, line) in cases {
        let sc = SimScenario {
            aggregation,
            ..every_variant()
        };
        let ron = sc.to_ron();
        assert_eq!(ron, EVERY_VARIANT.replace(golden_line, line));
        assert_eq!(SimScenario::from_ron(&ron).unwrap(), sc);
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn generator_output_bytes_are_pinned() {
    type Generator = fn(u64) -> SimScenario;
    let plain: [(&str, Generator, u64); 3] = [
        ("generate", SimScenario::generate, 0xdc0d_78b6_8f93_669c),
        (
            "generate_churn",
            SimScenario::generate_churn,
            0x7520_c2e7_28d8_d08f,
        ),
        (
            "generate_codec",
            SimScenario::generate_codec,
            0xc7ee_95ca_4940_f20d,
        ),
    ];
    let presets = [
        (ScenarioPreset::Diurnal, 0x3634_2b8b_14c1_4ead),
        (ScenarioPreset::DeviceTiers, 0xf1b7_4431_473b_9388),
        (ScenarioPreset::FlashCrowd, 0xd46a_bc6f_ffdb_6bf9),
        (ScenarioPreset::RegionalOutage, 0x7c79_fa0e_e9a1_1fd0),
        (ScenarioPreset::StalenessStorm, 0x957e_65b6_addc_8ad6),
    ];
    let mut drifted = Vec::new();
    let mut check = |name: &str, generate: &dyn Fn(u64) -> SimScenario, pinned: u64| {
        let text: String = (0..128).map(|seed| generate(seed).to_ron()).collect();
        let digest = fnv1a(text.as_bytes());
        if digest != pinned {
            drifted.push(format!("{name}: {digest:#018x} != pinned {pinned:#018x}"));
        }
    };
    for (name, generate, pinned) in plain {
        check(name, &generate, pinned);
    }
    for (preset, pinned) in presets {
        check(preset.name(), &|seed| preset.generate(seed), pinned);
    }
    assert!(
        drifted.is_empty(),
        "to_ron bytes moved:\n{}",
        drifted.join("\n")
    );
}
