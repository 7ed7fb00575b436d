//! Handler-level battery for the round-based baselines — FedAvg, a
//! HierFAVG edge and the HierFAVG cloud — driven without a simulation. A
//! frame from a node outside the round fills no slot; a member's upload
//! with the wrong dimension or no samples fills its slot but stays out of
//! the mean; the cloud drops models with an unusable weight or dimension.
//! None of them panics, and each is counted under `net.unexpected`.

#[path = "../../core/tests/support/mod.rs"]
mod support;

use spyker_baselines::fedavg::{FedAvgConfig, FedAvgServer};
use spyker_baselines::hierfavg::{CloudServer, EdgeServer, HierFavgConfig};
use spyker_core::agg::AggregationStrategy;
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_simnet::Node;
use support::MockEnv;

fn pv(v: &[f32]) -> ParamVec {
    ParamVec::from_vec(v.to_vec())
}

fn update(params: &[f32], num_samples: usize) -> FlMsg {
    FlMsg::ClientUpdate {
        params: pv(params),
        age: 0.0,
        num_samples,
    }
}

fn hier_model(params: &[f32], weight: f64) -> FlMsg {
    FlMsg::HierModel {
        params: pv(params),
        round: 0,
        weight,
    }
}

/// A started FedAvg server over clients 1 and 2 with a 2-dim zero model.
fn fedavg(aggregation: AggregationStrategy) -> (FedAvgServer, MockEnv) {
    let cfg = FedAvgConfig::paper_defaults().with_aggregation(aggregation);
    let mut s = FedAvgServer::new(vec![1, 2], ParamVec::zeros(2), cfg);
    let mut env = MockEnv::new(0, 4);
    s.on_start(&mut env);
    (s, env)
}

const STRATEGIES: [AggregationStrategy; 2] = [
    AggregationStrategy::Mean,
    AggregationStrategy::Median { batch: 1 },
];

#[test]
fn fedavg_fills_no_slot_for_a_stranger() {
    for aggregation in STRATEGIES {
        let (mut s, mut env) = fedavg(aggregation);
        s.on_message(&mut env, 3, update(&[9.0, 9.0], 10));
        s.on_message(&mut env, 1, update(&[1.0, 1.0], 10));
        assert_eq!(s.round(), 0, "{aggregation:?}: a stranger closed the round");
        assert_eq!(env.counter("net.unexpected"), 1, "{aggregation:?}");
        s.on_message(&mut env, 2, update(&[3.0, 3.0], 10));
        assert_eq!(s.round(), 1, "{aggregation:?}");
        assert_eq!(env.counter("updates.processed"), 2, "{aggregation:?}");
    }
}

#[test]
fn fedavg_keeps_a_wrong_dimension_upload_out_of_the_mean() {
    for aggregation in STRATEGIES {
        let (mut s, mut env) = fedavg(aggregation);
        s.on_message(&mut env, 1, update(&[5.0, 5.0, 5.0], 10));
        s.on_message(&mut env, 2, update(&[1.0, 2.0], 10));
        assert_eq!(s.round(), 1, "{aggregation:?}: the round stalled");
        assert_eq!(s.params(), &pv(&[1.0, 2.0]), "{aggregation:?}");
        assert_eq!(env.counter("net.unexpected"), 1, "{aggregation:?}");
        assert_eq!(env.counter("updates.processed"), 1, "{aggregation:?}");
    }
}

#[test]
fn fedavg_keeps_its_model_through_a_round_of_zero_sample_uploads() {
    for aggregation in STRATEGIES {
        let cfg = FedAvgConfig::paper_defaults().with_aggregation(aggregation);
        let mut s = FedAvgServer::new(vec![1], pv(&[0.5, 0.5]), cfg);
        let mut env = MockEnv::new(0, 2);
        s.on_start(&mut env);
        s.on_message(&mut env, 1, update(&[4.0, 4.0], 0));
        assert_eq!(s.round(), 1, "{aggregation:?}: the round stalled");
        assert_eq!(s.params(), &pv(&[0.5, 0.5]), "{aggregation:?}");
        assert_eq!(env.counter("net.unexpected"), 1, "{aggregation:?}");
        assert_eq!(env.counter("updates.processed"), 0, "{aggregation:?}");
        // The next round goes out with the kept model.
        let (to, FlMsg::ModelToClient { params, .. }) = env.sent.last().unwrap() else {
            panic!("no next round");
        };
        assert_eq!((*to, params), (1, &pv(&[0.5, 0.5])), "{aggregation:?}");
    }
}

/// A started edge server (node 3, cloud 0) over clients 1 and 2 with a
/// 2-dim zero model, uploading to the cloud after every round.
fn edge() -> (EdgeServer, MockEnv) {
    let cfg = HierFavgConfig {
        edge_rounds_per_cloud: 1,
        ..HierFavgConfig::paper_defaults()
    };
    let mut s = EdgeServer::new(0, vec![1, 2], ParamVec::zeros(2), cfg);
    let mut env = MockEnv::new(3, 5);
    s.on_start(&mut env);
    env.sent.clear();
    (s, env)
}

/// The cloud upload `env` holds, as `(params, weight)`.
fn uploaded(env: &MockEnv) -> Vec<(ParamVec, f64)> {
    env.sent
        .iter()
        .filter_map(|(to, msg)| match msg {
            FlMsg::HierModel { params, weight, .. } if *to == 0 => Some((params.clone(), *weight)),
            _ => None,
        })
        .collect()
}

#[test]
fn edge_fills_no_slot_for_a_non_client() {
    let (mut s, mut env) = edge();
    s.on_message(&mut env, 4, update(&[9.0, 9.0], 10));
    s.on_message(&mut env, 1, update(&[1.0, 1.0], 10));
    assert_eq!(s.round(), 0, "a non-client closed the round");
    assert_eq!(env.counter("net.unexpected"), 1);
    s.on_message(&mut env, 2, update(&[3.0, 3.0], 30));
    assert_eq!(s.round(), 1);
    assert_eq!(env.counter("updates.processed"), 2);
    assert_eq!(uploaded(&env), vec![(pv(&[2.5, 2.5]), 40.0)]);
}

#[test]
fn edge_keeps_unusable_uploads_out_of_the_mean() {
    let (mut s, mut env) = edge();
    s.on_message(&mut env, 1, update(&[5.0], 10));
    s.on_message(&mut env, 2, update(&[1.0, 2.0], 10));
    assert_eq!(s.round(), 1, "the round stalled");
    assert_eq!(s.params(), &pv(&[1.0, 2.0]));
    assert_eq!(env.counter("net.unexpected"), 1);
    assert_eq!(env.counter("updates.processed"), 1);
    assert_eq!(uploaded(&env), vec![(pv(&[1.0, 2.0]), 10.0)]);
}

#[test]
fn edge_keeps_its_model_through_a_round_with_nothing_usable() {
    let (mut s, mut env) = edge();
    s.on_message(&mut env, 1, update(&[5.0, 5.0], 0));
    s.on_message(&mut env, 2, update(&[5.0, 5.0, 5.0], 10));
    assert_eq!(s.round(), 1, "the round stalled");
    assert_eq!(s.params(), &ParamVec::zeros(2));
    assert_eq!(env.counter("net.unexpected"), 2);
    assert_eq!(env.counter("updates.processed"), 0);
}

/// The cloud (node 0) over edges 1 and 2.
fn cloud() -> (CloudServer, MockEnv) {
    (
        CloudServer::new(vec![1, 2], HierFavgConfig::paper_defaults()),
        MockEnv::new(0, 4),
    )
}

#[test]
fn cloud_fills_no_slot_for_a_non_edge() {
    let (mut s, mut env) = cloud();
    s.on_message(&mut env, 3, hier_model(&[9.0, 9.0], 10.0));
    s.on_message(&mut env, 1, hier_model(&[1.0, 1.0], 10.0));
    assert_eq!(s.round(), 0, "a non-edge closed the cloud round");
    assert_eq!(env.counter("net.unexpected"), 1);
    s.on_message(&mut env, 2, hier_model(&[3.0, 3.0], 30.0));
    assert_eq!(s.round(), 1);
    assert_eq!(s.params(), Some(&pv(&[2.5, 2.5])));
    assert_eq!(env.sent.len(), 2, "both edges get the global model");
}

#[test]
fn cloud_drops_unusable_weights_and_dimensions() {
    let (mut s, mut env) = cloud();
    for weight in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        s.on_message(&mut env, 1, hier_model(&[7.0, 7.0], weight));
    }
    s.on_message(&mut env, 1, hier_model(&[1.0, 1.0], 10.0));
    // Edge 2's model has another dimension than the round's first.
    s.on_message(&mut env, 2, hier_model(&[1.0, 1.0, 1.0], 10.0));
    assert_eq!(s.round(), 0, "an unusable model closed the cloud round");
    assert_eq!(env.counter("net.unexpected"), 5);
    s.on_message(&mut env, 2, hier_model(&[3.0, 3.0], 10.0));
    assert_eq!(s.round(), 1);
    assert_eq!(s.params(), Some(&pv(&[2.0, 2.0])));
}
