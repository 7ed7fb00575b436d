//! End-state fingerprint of HierFAVG's two aggregation levels.
//!
//! One short, seeded run built from the analytic mean-target trainer, with
//! one sign-flipping client, so the final model bits are a pure function of
//! how the edge and cloud rounds combine their uploads. A change here means
//! an edit altered the floating-point operation order of either weighted
//! mean, which uploads a round counts, or when a round closes.

use spyker_baselines::deploy::hierfavg_deployment;
use spyker_baselines::hierfavg::{CloudServer, EdgeServer, HierFavgConfig};
use spyker_core::params::ParamVec;
use spyker_core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_simnet::{ByzantineAttack, FaultPlan, NetworkConfig, SimTime};

const DIM: usize = 32;
const EDGES: usize = 2;
const CLIENTS: usize = 6;

/// FNV-1a over the cloud's and the edges' final model bits and the
/// counters that summarise the rounds: edge rounds, cloud rounds and the
/// updates the edges integrated.
fn hierfavg_fingerprint() -> u64 {
    let cfg = HierFavgConfig::paper_defaults().with_client_lr(0.3);
    assert_eq!(cfg.edge_rounds_per_cloud, 2);
    let trainers = (0..CLIENTS)
        .map(|i| {
            let target = (0..DIM).map(|d| (i * DIM + d) as f32 * 0.01).collect();
            Box::new(MeanTargetTrainer::new(target, 8 + i)) as Box<dyn LocalTrainer>
        })
        .collect();
    let delays = (0..CLIENTS)
        .map(|i| SimTime::from_millis(60 + 35 * i as u64))
        .collect();
    // Cloud = node 0, edges = 1..=2, clients 3..=8 (three per edge); the
    // client on node 4 flips the sign of every upload.
    let plan = FaultPlan::default().byzantine(1 + EDGES + 1, ByzantineAttack::SignFlip);
    let init = ParamVec::zeros(DIM);
    let mut sim = hierfavg_deployment(
        NetworkConfig::aws(),
        71,
        cfg,
        EDGES,
        trainers,
        init,
        delays,
        1,
    )
    .with_faults(plan);
    sim.run(SimTime::from_secs(8));
    let m = sim.metrics();
    assert!(m.counter("cloud.rounds") > 3, "too few cloud rounds");
    assert!(m.counter("fault.byzantine") > 5, "no attack");

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let cloud = sim.node(0).as_any().downcast_ref::<CloudServer>().unwrap();
    // The global model the last cloud round sent to the edges.
    for v in cloud.params().as_slice() {
        eat(&v.to_bits().to_le_bytes());
    }
    for e in 1..=EDGES {
        let edge = sim.node(e).as_any().downcast_ref::<EdgeServer>().unwrap();
        for v in edge.params().as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    for name in ["rounds", "cloud.rounds", "updates.processed"] {
        eat(&m.counter(name).to_le_bytes());
    }
    h
}

#[test]
fn hierfavg_end_state_is_pinned() {
    assert_eq!(hierfavg_fingerprint(), 0x140d_b3d7_645d_35e3);
}
