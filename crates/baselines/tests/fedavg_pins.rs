//! End-state fingerprints of FedAvg's aggregation arithmetic.
//!
//! Each run is short, seeded and built from the analytic mean-target
//! trainer, with one sign-flipping client, so the final model bits are a
//! pure function of how a round is combined. A change here means an edit
//! altered the floating-point operation order of FedAvg's weighted mean or
//! of its robust path (deltas, combine, step), or which uploads a round
//! counts.

use spyker_baselines::fedavg::{FedAvgConfig, FedAvgServer};
use spyker_core::agg::AggregationStrategy;
use spyker_core::client::FlClient;
use spyker_core::params::ParamVec;
use spyker_core::training::MeanTargetTrainer;
use spyker_simnet::{
    ByzantineAttack, FaultPlan, NetworkConfig, NodeId, Region, SimTime, Simulation,
};

const DIM: usize = 32;
const CLIENTS: usize = 6;

/// FNV-1a over the final model bits and the counters that summarise the
/// rounds: how many closed, how many updates they integrated, how many
/// robust combines ran.
fn fedavg_fingerprint(aggregation: AggregationStrategy) -> u64 {
    let plan = FaultPlan::default().byzantine(2, ByzantineAttack::SignFlip);
    let mut sim = Simulation::new(NetworkConfig::aws(), 53).with_faults(plan);
    let clients: Vec<NodeId> = (1..=CLIENTS).collect();
    let cfg = FedAvgConfig::paper_defaults()
        .with_client_lr(0.3)
        .with_aggregation(aggregation);
    sim.add_node(
        Box::new(FedAvgServer::new(clients, ParamVec::zeros(DIM), cfg)),
        Region::Hongkong,
    );
    for i in 0..CLIENTS {
        let target = (0..DIM).map(|d| (i * DIM + d) as f32 * 0.01).collect();
        sim.add_node(
            Box::new(FlClient::new(
                0,
                Box::new(MeanTargetTrainer::new(target, 8 + i)),
                1,
                SimTime::from_millis(60 + 35 * i as u64),
            )),
            Region::ALL[i % 4],
        );
    }
    sim.run(SimTime::from_secs(8));
    let m = sim.metrics();
    assert!(m.counter("rounds") > 5, "{aggregation:?}: too few rounds");
    assert!(
        m.counter("fault.byzantine") > 5,
        "{aggregation:?}: no attack"
    );

    let server = sim.node(0).as_any().downcast_ref::<FedAvgServer>().unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in server.params().as_slice() {
        eat(&v.to_bits().to_le_bytes());
    }
    for name in ["rounds", "updates.processed", "agg.robust.flushes"] {
        eat(&m.counter(name).to_le_bytes());
    }
    h
}

#[test]
fn fedavg_end_states_are_pinned() {
    // `batch` does not matter to FedAvg: a whole round is one combine.
    let cases = [
        (AggregationStrategy::Mean, 0xc2bc_24b0_3f8a_ff9d),
        (
            AggregationStrategy::TrimmedMean {
                batch: 4,
                trim_ratio: 0.2,
            },
            0xb007_8ea0_ac0a_fc99,
        ),
        (
            AggregationStrategy::Median { batch: 1 },
            0xed03_bb5b_509e_1ccc,
        ),
        (
            AggregationStrategy::ClippedMean {
                batch: 2,
                max_norm: 0.5,
            },
            0x8754_2f63_6ff0_f07a,
        ),
    ];
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(aggregation, pinned)| {
            let got = fedavg_fingerprint(aggregation);
            (got != pinned).then(|| format!("{aggregation:?}: {got:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
