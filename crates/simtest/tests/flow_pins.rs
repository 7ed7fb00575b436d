//! End states of flow-shared runs, pinned.
//!
//! The golden traces, the scenario presets and the seed sweeps all send
//! over per-message links; these four cohort runs are the pinned runs
//! whose traffic shares region trunks ([`spyker_simnet::LinkModel::FlowShared`]).
//! A change to the flow bookkeeping that moves one delivery by one
//! microsecond, or renumbers one event, moves a fingerprint. Never edit
//! the constants: a mismatch means the simulator's behaviour changed.

use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{SchedulerKind, SimTime};
use spyker_simtest::{run_scale, ScaleSpec};

fn assert_pinned(what: &str, spec: &ScaleSpec, events: u64, fingerprint: u64) {
    assert!(
        spec.flow_links,
        "{what}: the pins are about flow-shared links"
    );
    let stats = run_scale(spec, u64::MAX);
    assert!(stats.violation.is_none(), "{what}: {:?}", stats.violation);
    assert!(stats.updates_processed > 0, "{what}: no training happened");
    assert_eq!(
        (stats.events, stats.fingerprint),
        (events, fingerprint),
        "{what}: got ({}, {:#018x})",
        stats.events,
        stats.fingerprint
    );
}

fn ci_smoke_for(seed: u64, secs: u64) -> ScaleSpec {
    ScaleSpec {
        seed,
        horizon: SimTime::from_secs(secs),
        ..ScaleSpec::ci_smoke()
    }
}

#[test]
fn ci_smoke_seed_7_is_pinned() {
    assert_pinned(
        "ci_smoke seed 7",
        &ci_smoke_for(7, 20),
        75_305,
        0xc73d_bab2_da13_900a,
    );
}

#[test]
fn ci_smoke_seed_11_is_pinned() {
    assert_pinned(
        "ci_smoke seed 11",
        &ci_smoke_for(11, 20),
        76_560,
        0x7945_8c6b_824a_7339,
    );
}

#[test]
fn two_servers_5k_clients_are_pinned() {
    let spec = ScaleSpec {
        seed: 3,
        n_servers: 2,
        logical_clients: 5_000,
        cohort_size: 100,
        dim: 4,
        horizon: SimTime::from_secs(10),
        scheduler: SchedulerKind::Wheel,
        flow_links: true,
        codec: None,
    };
    assert_pinned("2 servers, 5k clients", &spec, 2_017, 0xf2c1_4b38_33d5_b155);
}

#[test]
fn the_codec_pipeline_is_pinned() {
    let spec = ScaleSpec {
        codec: Some(CodecConfig::paper_pipeline()),
        ..ci_smoke_for(7, 20)
    };
    assert_pinned(
        "ci_smoke seed 7, paper codec",
        &spec,
        75_305,
        0x9f94_7aa4_d0ba_605b,
    );
}
