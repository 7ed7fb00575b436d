//! Handler-level battery for the four round barriers — FedAvg, a HierFAVG
//! edge, the HierFAVG cloud and Sync-Spyker — driven without a simulation.
//! Every protocol gets the same cases: a stranger's frame fills no slot; a
//! member's unusable entry fills its slot but stays out of the result; a
//! round with nothing usable keeps the model and still releases the round;
//! a member's second offer replaces its first. None of them panics, and
//! every refusal is counted.

#[path = "../../core/tests/support/mod.rs"]
mod support;

use spyker_baselines::fedavg::{FedAvgConfig, FedAvgServer};
use spyker_baselines::hierfavg::{CloudServer, EdgeServer, HierFavgConfig};
use spyker_core::agg::AggregationStrategy;
use spyker_core::config::SpykerConfig;
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::sync_spyker::SyncSpykerServer;
use spyker_simnet::{Node, NodeId, SimTime};
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

fn server_model(params: &[f32], slot: NodeId) -> FlMsg {
    FlMsg::ServerModel {
        params: pv(params),
        age: 0.0,
        bid: 0,
        server_idx: slot,
    }
}

/// What closing a round sends, besides the new model.
#[derive(Debug, Clone, Copy)]
enum Release {
    /// Every member is sent a message.
    Members,
    /// The node sets the timer of its next round.
    Timer,
}

/// One round barrier under test: a node with a 2-dim zero model whose
/// round 0 is open, and two members, nodes 1 and 2.
struct Barrier {
    name: &'static str,
    start: fn() -> (Box<dyn Node<FlMsg>>, MockEnv),
    /// A node that is neither a member nor the node itself.
    stranger: NodeId,
    /// A usable offer of `[v, v]` in `member`'s name.
    offer: fn(member: NodeId, v: f32) -> FlMsg,
    /// Unusable offers in `member`'s name.
    unusable: fn(member: NodeId) -> Vec<Unusable>,
    /// Closed rounds.
    rounds: fn(&dyn Node<FlMsg>) -> u64,
    model: fn(&dyn Node<FlMsg>) -> ParamVec,
    /// Whether the round's own model is in the mean as a third, zero entry.
    own_entry: bool,
    /// The counter a closed round adds its usable entries to, if any.
    processed: Option<&'static str>,
    release: Release,
}

const MEMBERS: [NodeId; 2] = [1, 2];

/// An unusable offer and the counters it books.
type Unusable = (FlMsg, &'static [&'static str]);

type Outcome = Result<(), String>;

impl Barrier {
    /// The model a round yields from the members' usable `[v, v]` offers,
    /// all of one weight.
    fn mean_of(&self, vs: &[f32]) -> ParamVec {
        let n = vs.len() + usize::from(self.own_entry);
        let v = vs.iter().map(|&v| f64::from(v)).sum::<f64>() / n as f64;
        pv(&[v as f32, v as f32])
    }

    fn check_model(&self, node: &dyn Node<FlMsg>, want: &ParamVec, case: &str) -> Outcome {
        let got = (self.model)(node);
        let close = got.len() == want.len()
            && got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(g, w)| (g - w).abs() <= 1e-6);
        check(close, || format!("{case}: model {got:?}, want {want:?}"))
    }

    fn check_rounds(&self, node: &dyn Node<FlMsg>, want: u64, case: &str) -> Outcome {
        let got = (self.rounds)(node);
        check(got == want, || format!("{case}: {got} rounds, want {want}"))
    }

    /// `processed` holds the members' `usable` entries, plus the own one.
    fn check_processed(&self, env: &MockEnv, usable: u64, case: &str) -> Outcome {
        let Some(name) = self.processed else {
            return Ok(());
        };
        check_counter(env, name, usable + u64::from(self.own_entry), case)
    }

    fn check_released(&self, env: &MockEnv, sent: usize, timers: usize, case: &str) -> Outcome {
        let released = match self.release {
            Release::Members => MEMBERS
                .iter()
                .all(|m| env.sent[sent..].iter().any(|(to, _)| to == m)),
            Release::Timer => env.timers.len() > timers,
        };
        check(released, || format!("{case}: the round was not released"))
    }
}

fn check(ok: bool, why: impl FnOnce() -> String) -> Outcome {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

fn check_counter(env: &MockEnv, name: &str, want: u64, case: &str) -> Outcome {
    let got = env.counter(name);
    check(got == want, || {
        format!("{case}: {name} = {got}, want {want}")
    })
}

/// Runs `case` on every barrier and fails with every barrier's failure.
fn on_every_barrier(case: impl Fn(&Barrier) -> Outcome) {
    let failures: Vec<String> = BARRIERS
        .iter()
        .filter_map(|b| case(b).err().map(|why| format!("{}: {why}", b.name)))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

fn fedavg(aggregation: AggregationStrategy) -> (Box<dyn Node<FlMsg>>, MockEnv) {
    let cfg = FedAvgConfig::paper_defaults().with_aggregation(aggregation);
    let mut s = FedAvgServer::new(MEMBERS.to_vec(), ParamVec::zeros(2), cfg);
    let mut env = MockEnv::new(0, 4);
    s.on_start(&mut env);
    (Box::new(s), env)
}

fn fedavg_of(node: &dyn Node<FlMsg>) -> &FedAvgServer {
    node.as_any().downcast_ref().unwrap()
}

/// Client uploads a round's mean cannot take: another dimension, no
/// samples, a non-finite value.
fn unusable_uploads(_: NodeId) -> Vec<Unusable> {
    vec![
        (update(&[5.0, 5.0, 5.0], 10), &["net.unexpected"]),
        (update(&[4.0, 4.0], 0), &["net.unexpected"]),
        (
            update(&[f32::NAN, 1.0], 10),
            &["agg.rejected", "agg.rejected.nonfinite"],
        ),
    ]
}

const FEDAVG_MEAN: Barrier = Barrier {
    name: "fedavg/mean",
    start: || fedavg(AggregationStrategy::Mean),
    stranger: 3,
    offer: |_, v| update(&[v, v], 10),
    unusable: unusable_uploads,
    rounds: |n| fedavg_of(n).round(),
    model: |n| fedavg_of(n).params().clone(),
    own_entry: false,
    processed: Some("updates.processed"),
    release: Release::Members,
};

const FEDAVG_MEDIAN: Barrier = Barrier {
    name: "fedavg/median",
    start: || fedavg(AggregationStrategy::Median { batch: 1 }),
    ..FEDAVG_MEAN
};

/// The edge (node 3, cloud 0) over clients 1 and 2, uploading to the
/// cloud after every `edge_rounds_per_cloud`-th round.
fn edge_server(edge_rounds_per_cloud: u64) -> (EdgeServer, MockEnv) {
    let cfg = HierFavgConfig {
        edge_rounds_per_cloud,
        ..HierFavgConfig::paper_defaults()
    };
    let mut s = EdgeServer::new(0, MEMBERS.to_vec(), ParamVec::zeros(2), cfg);
    let mut env = MockEnv::new(3, 5);
    s.on_start(&mut env);
    env.sent.clear();
    (s, env)
}

fn edge_of(node: &dyn Node<FlMsg>) -> &EdgeServer {
    node.as_any().downcast_ref().unwrap()
}

const EDGE: Barrier = Barrier {
    name: "hierfavg edge",
    // Two edge rounds per cloud round: closing the first one answers the
    // clients.
    start: || {
        let (s, env) = edge_server(2);
        (Box::new(s), env)
    },
    stranger: 4,
    offer: |_, v| update(&[v, v], 10),
    unusable: unusable_uploads,
    rounds: |n| edge_of(n).round(),
    model: |n| edge_of(n).params().clone(),
    own_entry: false,
    processed: Some("updates.processed"),
    release: Release::Members,
};

fn cloud_of(node: &dyn Node<FlMsg>) -> &CloudServer {
    node.as_any().downcast_ref().unwrap()
}

const CLOUD: Barrier = Barrier {
    name: "hierfavg cloud",
    start: || {
        let cfg = HierFavgConfig::paper_defaults();
        let s = CloudServer::new(MEMBERS.to_vec(), ParamVec::zeros(2), cfg);
        (Box::new(s), MockEnv::new(0, 4))
    },
    stranger: 3,
    offer: |_, v| hier_model(&[v, v], 10.0),
    unusable: |_| {
        let mut models: Vec<Unusable> = [f64::NAN, f64::INFINITY, 0.0, -1.0]
            .into_iter()
            .map(|w| (hier_model(&[7.0, 7.0], w), &["net.unexpected"][..]))
            .collect();
        models.push((hier_model(&[1.0, 1.0, 1.0], 10.0), &["net.unexpected"]));
        models.push((
            hier_model(&[f32::NAN, 1.0], 10.0),
            &["agg.rejected", "agg.rejected.nonfinite"],
        ));
        models
    },
    rounds: |n| cloud_of(n).round(),
    model: |n| cloud_of(n).params().clone(),
    own_entry: false,
    // The cloud counts its rounds only.
    processed: None,
    release: Release::Members,
};

fn sync_of(node: &dyn Node<FlMsg>) -> &SyncSpykerServer {
    node.as_any().downcast_ref().unwrap()
}

const SYNC_SPYKER: Barrier = Barrier {
    name: "sync-spyker",
    // Server 0 of servers 0, 1 and 2, with client 3, whose round-0
    // exchange is open: its own model fills its slot.
    start: || {
        let cfg = SpykerConfig::paper_defaults(1, 3);
        let mut s = SyncSpykerServer::new(
            0,
            vec![0, 1, 2],
            vec![3],
            ParamVec::zeros(2),
            cfg,
            SimTime::from_secs(1),
        );
        let mut env = MockEnv::new(0, 4);
        s.on_start(&mut env);
        // The round timer, the server's only one.
        s.on_timer(&mut env, 1);
        env.sent.clear();
        env.timers.clear();
        (Box::new(s), env)
    },
    stranger: 3,
    offer: |slot, v| server_model(&[v, v], slot),
    unusable: |slot| {
        let peer: &[&str] = &["agg.rejected", "agg.rejected.peer"];
        let mut models: Vec<Unusable> = [vec![1.0, 1.0, 1.0], vec![], vec![f32::NAN, 1.0]]
            .into_iter()
            .map(|p| (server_model(&p, slot), peer))
            .collect();
        // An age below 0 would turn its weight, `age + 1`, negative.
        for age in [-5.0, f64::NAN] {
            let model = FlMsg::ServerModel {
                params: pv(&[1.0, 1.0]),
                age,
                bid: 0,
                server_idx: slot,
            };
            models.push((model, peer));
        }
        models
    },
    rounds: |n| sync_of(n).rounds_completed(),
    model: |n| sync_of(n).params().clone(),
    own_entry: true,
    processed: Some("server.aggs"),
    release: Release::Timer,
};

const BARRIERS: [Barrier; 5] = [FEDAVG_MEAN, FEDAVG_MEDIAN, EDGE, CLOUD, SYNC_SPYKER];

#[test]
fn a_stranger_fills_no_slot() {
    on_every_barrier(|b| {
        let (mut node, mut env) = (b.start)();
        // The stranger's frame claims the first member's place.
        node.on_message(&mut env, b.stranger, (b.offer)(MEMBERS[0], 9.0));
        check_counter(&env, "net.unexpected", 1, "stranger")?;
        node.on_message(&mut env, MEMBERS[0], (b.offer)(MEMBERS[0], 1.0));
        b.check_rounds(&*node, 0, "a stranger closed the round")?;
        node.on_message(&mut env, MEMBERS[1], (b.offer)(MEMBERS[1], 3.0));
        b.check_rounds(&*node, 1, "stranger")?;
        b.check_processed(&env, 2, "stranger")?;
        b.check_model(&*node, &b.mean_of(&[1.0, 3.0]), "stranger")
    });
}

#[test]
fn an_unusable_entry_fills_its_slot_and_stays_out_of_the_result() {
    on_every_barrier(|b| {
        let mut failures = Vec::new();
        for (bad, counters) in (b.unusable)(MEMBERS[0]) {
            let case = format!("{bad:?}");
            let outcome = (|| {
                let (mut node, mut env) = (b.start)();
                node.on_message(&mut env, MEMBERS[0], bad);
                for name in counters {
                    check_counter(&env, name, 1, &case)?;
                }
                b.check_rounds(&*node, 0, &case)?;
                node.on_message(&mut env, MEMBERS[1], (b.offer)(MEMBERS[1], 3.0));
                b.check_rounds(&*node, 1, &case)?;
                b.check_processed(&env, 1, &case)?;
                b.check_model(&*node, &b.mean_of(&[3.0]), &case)
            })();
            failures.extend(outcome.err());
        }
        check(failures.is_empty(), || failures.join("; "))
    });
}

#[test]
fn a_round_with_nothing_usable_keeps_the_model_and_is_released() {
    on_every_barrier(|b| {
        let mut failures = Vec::new();
        for (i, (bad, _)) in (b.unusable)(MEMBERS[0]).into_iter().enumerate() {
            let case = format!("{bad:?}");
            let outcome = (|| {
                let (mut node, mut env) = (b.start)();
                node.on_message(&mut env, MEMBERS[0], bad);
                let (sent, timers) = (env.sent.len(), env.timers.len());
                let (other, _) = (b.unusable)(MEMBERS[1]).swap_remove(i);
                node.on_message(&mut env, MEMBERS[1], other);
                b.check_rounds(&*node, 1, &case)?;
                b.check_processed(&env, 0, &case)?;
                b.check_model(&*node, &ParamVec::zeros(2), &case)?;
                b.check_released(&env, sent, timers, &case)
            })();
            failures.extend(outcome.err());
        }
        check(failures.is_empty(), || failures.join("; "))
    });
}

#[test]
fn a_second_offer_replaces_the_first() {
    on_every_barrier(|b| {
        let (mut node, mut env) = (b.start)();
        node.on_message(&mut env, MEMBERS[0], (b.offer)(MEMBERS[0], 9.0));
        node.on_message(&mut env, MEMBERS[0], (b.offer)(MEMBERS[0], 1.0));
        b.check_rounds(&*node, 0, "a repeated offer closed the round")?;
        node.on_message(&mut env, MEMBERS[1], (b.offer)(MEMBERS[1], 3.0));
        b.check_rounds(&*node, 1, "duplicate")?;
        b.check_processed(&env, 2, "duplicate")?;
        b.check_model(&*node, &b.mean_of(&[1.0, 3.0]), "duplicate")
    });
}

/// The edge's cloud upload in `env`, as `(params, weight)`.
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
fn edge_uploads_the_sample_weighted_mean_and_its_samples() {
    let (mut s, mut env) = edge_server(1);
    s.on_message(&mut env, 1, update(&[1.0, 1.0], 10));
    s.on_message(&mut env, 2, update(&[3.0, 3.0], 30));
    assert_eq!(s.round(), 1);
    assert_eq!(uploaded(&env), vec![(pv(&[2.5, 2.5]), 40.0)]);
}

#[test]
fn edge_keeps_unusable_uploads_out_of_its_upload() {
    for (bad, _) in unusable_uploads(1) {
        let (mut s, mut env) = edge_server(1);
        s.on_message(&mut env, 1, bad.clone());
        s.on_message(&mut env, 2, update(&[1.0, 2.0], 10));
        assert_eq!(s.round(), 1, "{bad:?}: the round stalled");
        assert_eq!(env.counter("updates.processed"), 1, "{bad:?}");
        // Neither the unusable model nor its samples reach the cloud.
        assert_eq!(uploaded(&env), vec![(pv(&[1.0, 2.0]), 10.0)], "{bad:?}");
    }
}

#[test]
fn an_edge_installs_only_its_clouds_model() {
    let (mut s, mut env) = edge_server(1);
    s.on_message(&mut env, 1, update(&[1.0, 1.0], 10));
    s.on_message(&mut env, 2, update(&[3.0, 3.0], 10));
    assert_eq!(uploaded(&env).len(), 1, "no upload");
    env.sent.clear();
    // From a node that is not the cloud, then from the cloud: another
    // dimension, a non-finite value.
    let lies = [
        (4, hier_model(&[5.0; 5], 0.0)),
        (4, hier_model(&[5.0, 5.0], 0.0)),
        (0, hier_model(&[5.0; 3], 0.0)),
        (0, hier_model(&[f32::NAN, 5.0], 0.0)),
    ];
    for (i, (from, lie)) in lies.into_iter().enumerate() {
        s.on_message(&mut env, from, lie);
        assert_eq!(s.params(), &pv(&[2.0, 2.0]), "lie {i} was installed");
        assert_eq!(env.counter("net.unexpected"), i as u64 + 1);
        assert!(env.sent.is_empty(), "lie {i} opened a round");
    }
    s.on_message(&mut env, 0, hier_model(&[5.0, 5.0], 0.0));
    assert_eq!(s.params(), &pv(&[5.0, 5.0]));
    assert_eq!(env.sent.len(), 2, "both clients get the cloud's model");
}

#[test]
fn an_edge_waiting_for_its_cloud_opens_no_round() {
    let (mut s, mut env) = edge_server(1);
    s.on_message(&mut env, 1, update(&[1.0, 1.0], 10));
    s.on_message(&mut env, 2, update(&[3.0, 3.0], 10));
    s.on_message(&mut env, 1, update(&[7.0, 7.0], 10));
    assert_eq!(env.counter("net.unexpected"), 1, "the update took a slot");
    s.on_message(&mut env, 0, hier_model(&[5.0, 5.0], 0.0));
    s.on_message(&mut env, 2, update(&[3.0, 3.0], 10));
    assert_eq!(s.round(), 1, "a slot filled while waiting closed the round");
    s.on_message(&mut env, 1, update(&[1.0, 1.0], 10));
    assert_eq!((s.round(), s.params()), (2, &pv(&[2.0, 2.0])));
}

#[test]
fn cloud_drops_unusable_weights_and_dimensions() {
    let (mut node, mut env) = (CLOUD.start)();
    for weight in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        node.on_message(&mut env, 1, hier_model(&[7.0, 7.0], weight));
    }
    // Edge 2's model has another dimension than the cloud's.
    node.on_message(&mut env, 2, hier_model(&[1.0, 1.0, 1.0], 10.0));
    assert_eq!(env.counter("net.unexpected"), 5);
    // Each unusable model filled its edge's slot and stayed out of the
    // mean: the round closed on nothing usable, and both edges were
    // answered with the cloud's model as it stood.
    assert_eq!(cloud_of(&*node).round(), 1, "the cloud round stalled");
    let answers: Vec<_> = env.sent.drain(..).map(|(to, _)| to).collect();
    assert_eq!(answers, [1, 2]);
    node.on_message(&mut env, 1, hier_model(&[1.0, 1.0], 10.0));
    node.on_message(&mut env, 2, hier_model(&[3.0, 3.0], 10.0));
    assert_eq!(cloud_of(&*node).round(), 2);
    assert_eq!(
        CLOUD.check_model(&*node, &pv(&[2.0, 2.0]), "after the stall"),
        Ok(())
    );
}
