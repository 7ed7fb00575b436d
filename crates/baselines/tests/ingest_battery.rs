//! Handler-level battery for the shared update-ingest path, driven without
//! a simulation: the same crafted uploads go to every per-update server —
//! Spyker, Sync-Spyker, FedAsync, Clustered Spyker — and each must reject
//! the poisoned ones, leave its model untouched, count the cause under
//! `agg.rejected.*`, and still answer the sender with its current model.

#[path = "../../core/tests/support/mod.rs"]
mod support;

use spyker_baselines::fedasync::{FedAsyncConfig, FedAsyncServer};
use spyker_core::agg::ValidationConfig;
use spyker_core::cluster::ClusteredSpykerServer;
use spyker_core::config::SpykerConfig;
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::sync_spyker::SyncSpykerServer;
use spyker_core::update_codec::{CodecConfig, UpdateEncoder};
use spyker_simnet::{Node, NodeId, SimTime};
use support::MockEnv;

/// One server under test: node 0, serving clients 1 and 2, 2-dim model
/// starting at zero.
struct Subject {
    name: &'static str,
    node: Box<dyn Node<FlMsg>>,
    /// The model client updates are integrated into, and its age.
    model: fn(&dyn Node<FlMsg>) -> (ParamVec, f64),
    /// The upload message this server's clients send.
    upload: fn(ParamVec, f64) -> FlMsg,
}

fn dense_upload(params: ParamVec, age: f64) -> FlMsg {
    FlMsg::ClientUpdate {
        params,
        age,
        num_samples: 10,
    }
}

fn downcast<T: 'static>(node: &dyn Node<FlMsg>) -> &T {
    node.as_any().downcast_ref::<T>().expect("subject type")
}

fn subjects(validation: ValidationConfig) -> Vec<Subject> {
    subjects_from(SpykerConfig::paper_defaults(2, 1).with_validation(validation))
}

/// The four servers under `cfg` (FedAsync takes its validation gate).
fn subjects_from(cfg: SpykerConfig) -> Vec<Subject> {
    let validation = cfg.validation;
    let init = || ParamVec::zeros(2);
    let period = SimTime::from_secs(1);
    vec![
        Subject {
            name: "Spyker",
            node: Box::new(SpykerServer::new(
                0,
                vec![0],
                vec![1, 2],
                init(),
                cfg.clone(),
            )),
            model: |n| {
                let s = downcast::<SpykerServer>(n);
                (s.params().clone(), s.age())
            },
            upload: dense_upload,
        },
        Subject {
            name: "Sync-Spyker",
            node: Box::new(SyncSpykerServer::new(
                0,
                vec![0],
                vec![1, 2],
                init(),
                cfg.clone(),
                period,
            )),
            model: |n| {
                let s = downcast::<SyncSpykerServer>(n);
                (s.params().clone(), s.age())
            },
            upload: dense_upload,
        },
        Subject {
            name: "FedAsync",
            node: Box::new(FedAsyncServer::new(
                vec![1, 2],
                init(),
                FedAsyncConfig::paper_defaults().with_validation(validation),
            )),
            model: |n| {
                let s = downcast::<FedAsyncServer>(n);
                (s.params().clone(), s.version() as f64)
            },
            upload: dense_upload,
        },
        Subject {
            name: "Clustered Spyker",
            node: Box::new(ClusteredSpykerServer::new(
                0,
                vec![0],
                vec![1, 2],
                vec![init()],
                cfg,
                period,
            )),
            model: |n| {
                let centers = downcast::<ClusteredSpykerServer>(n).centers();
                (centers.center(0).clone(), centers.ages()[0])
            },
            upload: |params, age| FlMsg::ClusterUpdate {
                params,
                age,
                center: 0,
                num_samples: 10,
            },
        },
    ]
}

impl Subject {
    fn send(&mut self, env: &mut MockEnv, from: NodeId, params: &[f32], age: f64) {
        let msg = (self.upload)(ParamVec::from_vec(params.to_vec()), age);
        self.node.on_message(env, from, msg);
    }

    fn model(&self) -> (ParamVec, f64) {
        (self.model)(self.node.as_ref())
    }
}

/// The `(model, age)` a reply hands the client — `ModelToClient`, or the
/// single offered center of a `CentersToClient`.
fn replied_model(msg: &FlMsg) -> (&ParamVec, f64) {
    match msg {
        FlMsg::ModelToClient { params, age, .. } => (params, *age),
        FlMsg::CentersToClient { centers, ages, .. } => (&centers[0], ages[0]),
        other => panic!("expected a model reply, got {other:?}"),
    }
}

#[test]
fn nonfinite_uploads_are_rejected_counted_and_answered() {
    for mut s in subjects(ValidationConfig::default()) {
        let name = s.name;
        let mut env = MockEnv::new(0, 3);
        let before = s.model();

        s.send(&mut env, 1, &[f32::NAN, 0.5], 0.0);
        s.send(&mut env, 1, &[f32::INFINITY, 0.0], 0.0);
        s.send(&mut env, 2, &[0.1, 0.1], f64::NAN);

        assert_eq!(s.model(), before, "{name}: poison reached the model");
        assert_eq!(env.counter("agg.rejected"), 3, "{name}");
        assert_eq!(env.counter("agg.rejected.nonfinite"), 3, "{name}");
        assert_eq!(env.counter("updates.processed"), 0, "{name}");
        // The protocol is reactive: a silent reject would starve the
        // client forever, so every rejected upload is answered with the
        // current (finite, un-aged) model.
        assert_eq!(env.sent.len(), 3, "{name}: a rejected client was starved");
        for ((to, msg), want_to) in env.sent.iter().zip([1, 1, 2]) {
            assert_eq!(*to, want_to, "{name}");
            let (params, age) = replied_model(msg);
            assert_eq!((params, age), (&before.0, before.1), "{name}");
        }
    }
}

/// After three wrong-dimension uploads, from clients 1, 2 and 2: nothing
/// integrated, nothing counted as a gate rejection (the by-cause oracle
/// sums `agg.rejected.*`), every sender answered with the untouched model.
fn assert_dropped_and_answered(s: &Subject, env: &MockEnv, before: &(ParamVec, f64)) {
    let name = s.name;
    assert_eq!(&s.model(), before, "{name}: the model moved");
    assert_eq!(env.counter("net.unexpected"), 3, "{name}");
    assert_eq!(env.counter("agg.rejected"), 0, "{name}");
    assert_eq!(env.counter("updates.processed"), 0, "{name}");
    assert_eq!(env.sent.len(), 3, "{name}: a dropped client was starved");
    for ((to, msg), want_to) in env.sent.iter().zip([1, 2, 2]) {
        assert_eq!(*to, want_to, "{name}");
        let (params, age) = replied_model(msg);
        assert_eq!((params, age), (&before.0, before.1), "{name}");
    }
}

#[test]
fn wrong_dimension_uploads_are_counted_drops_and_answered() {
    // The 2-dim servers are handed 3-, 1- and 0-dim updates. The check
    // sits ahead of the gate: the norm gate's distance and the lerp behind
    // the default gate both assume equal lengths.
    let norm_gate = ValidationConfig {
        max_delta_norm: Some(10.0),
        ..ValidationConfig::default()
    };
    for validation in [ValidationConfig::default(), norm_gate] {
        for mut s in subjects(validation) {
            let mut env = MockEnv::new(0, 3);
            let before = s.model();
            s.send(&mut env, 1, &[0.5, 0.5, 0.5], 0.0);
            s.send(&mut env, 2, &[0.5], 0.0);
            s.send(&mut env, 2, &[], 0.0);
            assert_dropped_and_answered(&s, &env, &before);
        }
    }

    // Encoded: a self-contained (non-delta) payload declares its own
    // dimension. Spyker and Sync-Spyker are the servers that decode.
    let codec = CodecConfig::identity();
    let encoded = |update: &[f32]| {
        let mut payload = Vec::new();
        UpdateEncoder::new(codec).encode(1, update, &[], 0, &mut payload);
        FlMsg::EncodedUpdate {
            payload,
            age: 0.0,
            num_samples: 10,
        }
    };
    let cfg = SpykerConfig::paper_defaults(2, 1).with_codec(codec);
    for mut s in subjects_from(cfg).into_iter().take(2) {
        let mut env = MockEnv::new(0, 3);
        let before = s.model();
        s.node.on_message(&mut env, 1, encoded(&[0.5, 0.5, 0.5]));
        s.node.on_message(&mut env, 2, encoded(&[0.5]));
        s.node.on_message(&mut env, 2, encoded(&[]));
        assert_eq!(env.counter("codec.decoded"), 3, "{}", s.name);
        assert_dropped_and_answered(&s, &env, &before);
        // A right-sized payload still goes through.
        s.node.on_message(&mut env, 1, encoded(&[0.5, 0.5]));
        assert_eq!(env.counter("updates.processed"), 1, "{}", s.name);
    }
}

#[test]
fn exploded_norm_is_rejected_only_when_the_gate_is_configured() {
    // Without a norm gate the huge-but-finite update is integrated…
    for mut s in subjects(ValidationConfig::default()) {
        let mut env = MockEnv::new(0, 3);
        s.send(&mut env, 1, &[1e6, 1e6], 0.0);
        assert_eq!(env.counter("updates.processed"), 1, "{}", s.name);
        assert_eq!(env.counter("agg.rejected"), 0, "{}", s.name);
    }
    // …with the gate it is rejected, leaves no trace on the model, and
    // lands in the `norm` cause counter.
    let gate = ValidationConfig {
        max_delta_norm: Some(10.0),
        ..ValidationConfig::default()
    };
    for mut s in subjects(gate) {
        let name = s.name;
        let mut env = MockEnv::new(0, 3);
        s.send(&mut env, 1, &[1e6, 1e6], 0.0);
        assert_eq!(env.counter("updates.processed"), 0, "{name}");
        assert_eq!(env.counter("agg.rejected"), 1, "{name}");
        assert_eq!(env.counter("agg.rejected.norm"), 1, "{name}");
        assert_eq!(s.model().0.as_slice(), [0.0, 0.0], "{name}");
        // An update just inside the gate still passes.
        s.send(&mut env, 2, &[3.0, 4.0], 0.0);
        assert_eq!(env.counter("updates.processed"), 1, "{name}");
        assert_eq!(
            env.counter("agg.rejected"),
            1,
            "{name}: honest update rejected"
        );
    }
}

#[test]
fn overstale_upload_is_rejected_once_the_model_has_aged() {
    let gate = ValidationConfig {
        max_staleness: Some(3.0),
        ..ValidationConfig::default()
    };
    for mut s in subjects(gate) {
        let name = s.name;
        let mut env = MockEnv::new(0, 3);
        // Age the model with fresh honest updates (each adds 1 to the age:
        // zero staleness means full weight).
        for _ in 0..5 {
            let age = s.model().1;
            s.send(&mut env, 1, &[0.1, 0.1], age);
        }
        assert_eq!(env.counter("updates.processed"), 5, "{name}");
        let aged = s.model();
        assert!(aged.1 > 4.0, "{name}: age {}", aged.1);

        // A client echoing the original age-0 model is now > 3 units stale.
        s.send(&mut env, 2, &[0.1, 0.1], 0.0);
        assert_eq!(env.counter("agg.rejected"), 1, "{name}");
        assert_eq!(env.counter("agg.rejected.stale"), 1, "{name}");
        assert_eq!(env.counter("updates.processed"), 5, "{name}");
        assert_eq!(s.model(), aged, "{name}: stale update was integrated");
    }
}

#[test]
fn uploads_and_knocks_from_unknown_nodes_are_counted_drops() {
    for mut s in subjects(ValidationConfig::default()) {
        let name = s.name;
        let mut env = MockEnv::new(0, 9);
        s.send(&mut env, 7, &[1.0, 1.0], 0.0);
        s.node.on_message(&mut env, 7, FlMsg::ClientHello);
        assert_eq!(env.counter("net.unexpected"), 2, "{name}");
        assert_eq!(env.counter("updates.processed"), 0, "{name}");
        assert!(env.sent.is_empty(), "{name}: answered a stranger");
    }
}
