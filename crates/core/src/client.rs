//! The asynchronous FL client actor (Alg. 1, `LocalTraining`).

use std::any::Any;
use std::sync::{Arc, Mutex};

use spyker_simnet::{Env, JobHandle, Node, NodeId, SimTime};

use crate::msg::{self, FlMsg};
use crate::params::{ParamVec, SHARE_FROM};
use crate::training::LocalTrainer;
use crate::update_codec::{CodecConfig, UpdateEncoder};

/// A round that panicked poisons its client's trainer or encoder.
const POISONED: &str = "an earlier training round of this client panicked";

/// Opt-in client-side failover (the elastic-membership extension's answer
/// to a *crashed* server — a voluntary leaver re-homes its clients itself
/// via [`FlMsg::Rehome`]).
///
/// A client with failover runs a liveness timer: hearing nothing from its
/// server for a full `timeout`, it advances to the next candidate server
/// and announces itself with a [`FlMsg::ClientHello`]. Strictly opt-in —
/// without it the client arms no timers and behaves byte-identically to
/// the fixed-topology implementation.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Servers to try, in order (wrapping); the client's current server
    /// need not be listed.
    pub candidates: Vec<NodeId>,
    /// Silence threshold before re-homing to the next candidate.
    pub timeout: SimTime,
}

/// A federated client.
///
/// The client is purely reactive: whenever it receives a model from its
/// server it trains the model on its private shard for the requested number
/// of epochs at the requested learning rate, charges its (heterogeneous)
/// training delay to virtual time, and sends the trained model back tagged
/// with the age it arrived with (Alg. 1 ll. 4–10).
///
/// The same actor serves Spyker and every baseline: in synchronous
/// algorithms (FedAvg, HierFAVG) the server simply chooses *when* to send
/// models; the client's behaviour is identical.
///
/// A round is one job: train the received model with this client's
/// trainer and, with a codec, encode it with this client's encoder. A
/// model of at least 1 024 coordinates goes out through
/// [`Env::send_computed`], which lets the runtime run the job elsewhere —
/// the DES runs it on a pool worker while its event loop goes on — and a
/// smaller one trains inline. Either way the run computes the same bits
/// (DESIGN.md §10.5). A dropped client waits for its last round.
pub struct FlClient {
    server: NodeId,
    /// Shared with the round's job, which may run on a pool worker.
    trainer: Arc<Mutex<Box<dyn LocalTrainer>>>,
    /// The previous round's job while it may still be running: the next
    /// round waits for it, so the trainer and the encoder advance in round
    /// order.
    last_round: Option<JobHandle<FlMsg>>,
    epochs: usize,
    train_delay: SimTime,
    updates_sent: u64,
    failover: Option<FailoverConfig>,
    /// Anything heard from the server since the last liveness check?
    heard: bool,
    /// Next candidate to try on failover (index into the candidate list).
    next_candidate: usize,
    /// Times this client re-homed itself (failovers + `Rehome` orders).
    rehomed: u64,
    /// Update compression, shared with the round's job; `None` sends dense
    /// `ClientUpdate`s.
    codec: Option<Arc<Mutex<UpdateEncoder>>>,
    /// Cumulative `(raw, encoded)` upload bytes, booked at send time.
    ledger: (u64, u64),
}

impl FlClient {
    /// Creates a client attached to `server`.
    ///
    /// `train_delay` is the virtual CPU time one local training takes on
    /// this client — the paper samples it per client from N(150 ms, 7.5²)
    /// and keeps it fixed across the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0`.
    pub fn new(
        server: NodeId,
        trainer: Box<dyn LocalTrainer>,
        epochs: usize,
        train_delay: SimTime,
    ) -> Self {
        assert!(epochs > 0, "epochs must be positive");
        Self {
            server,
            trainer: Arc::new(Mutex::new(trainer)),
            last_round: None,
            epochs,
            train_delay,
            updates_sent: 0,
            failover: None,
            heard: false,
            next_candidate: 0,
            rehomed: 0,
            codec: None,
            ledger: (0, 0),
        }
    }

    /// Enables update compression (builder style). See
    /// [`crate::update_codec`].
    ///
    /// # Panics
    ///
    /// Panics if `codec` fails [`CodecConfig::validate`].
    pub fn with_update_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = Some(Arc::new(Mutex::new(UpdateEncoder::new(codec))));
        self
    }

    /// The client's cumulative `(raw, encoded)` byte ledger, when a codec
    /// is active — what its dense uploads would have cost on the wire vs
    /// what the encoded ones did (reconciled against the `net.bytes.*`
    /// counters by the simtest byte-accounting oracle).
    pub fn codec_ledger(&self) -> Option<(u64, u64)> {
        self.codec.as_ref().map(|_| self.ledger)
    }

    /// Enables client-side failover (builder style). See [`FailoverConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `failover.candidates` is empty.
    pub fn with_failover(mut self, failover: FailoverConfig) -> Self {
        assert!(
            !failover.candidates.is_empty(),
            "failover needs at least one candidate server"
        );
        self.failover = Some(failover);
        self
    }

    /// Number of updates this client has sent (paper Fig. 10's per-client
    /// update counts).
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// The server this client reports to.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// This client's fixed training delay.
    pub fn train_delay(&self) -> SimTime {
        self.train_delay
    }

    /// Times this client re-homed itself (silence failovers plus `Rehome`
    /// orders from a departing server).
    pub fn rehomed(&self) -> u64 {
        self.rehomed
    }

    /// Moves to `server` and announces itself there.
    fn rehome_to(&mut self, env: &mut dyn Env<FlMsg>, server: NodeId) {
        self.server = server;
        self.rehomed += 1;
        // Skip the new home in future failover rotations.
        if let Some(f) = &self.failover {
            if let Some(pos) = f.candidates.iter().position(|&c| c == server) {
                self.next_candidate = (pos + 1) % f.candidates.len();
            }
        }
        env.send(server, FlMsg::ClientHello);
    }

    /// Sends the update that `job` builds from a model of `len`
    /// coordinates, declared as `bytes` on the wire. Only a large model
    /// pays for a hand-off to wherever the runtime runs the job; the next
    /// round waits for it through the returned handle.
    fn send_round(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        len: usize,
        bytes: usize,
        job: impl FnOnce() -> FlMsg + Send + 'static,
    ) {
        if len >= SHARE_FROM {
            let job = Box::new(job);
            self.last_round = env.send_computed(self.server, bytes, msg::CLIENT_SERVER, job);
        } else {
            env.send(self.server, job());
        }
    }
}

impl Drop for FlClient {
    /// Waits for the last round's job, so a dropped simulation leaves no
    /// training behind, and re-raises its panic — unless this thread is
    /// already unwinding.
    fn drop(&mut self) {
        if let Some(last) = self.last_round.take() {
            if !std::thread::panicking() {
                last.wait();
            }
        }
    }
}

impl Node<FlMsg> for FlClient {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        // Clients wait for their server to send the initial model. With
        // failover they also guard that wait with the liveness timer.
        if let Some(f) = &self.failover {
            env.set_timer(f.timeout, 0);
        }
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        if let FlMsg::Rehome { server } = msg {
            // Our server is leaving the ring and hands us to a survivor.
            if self.failover.is_some() {
                env.add_counter("membership.client_rehomes", 1);
                self.rehome_to(env, server);
            } else {
                env.add_counter("net.unexpected", 1);
            }
            return;
        }
        let FlMsg::ModelToClient {
            mut params,
            age,
            lr,
        } = msg
        else {
            // Reachable from network bytes on the TCP transport: count
            // and drop rather than assert (DESIGN.md §13).
            env.add_counter("net.unexpected", 1);
            return;
        };
        // With failover a late reply from a previous home is still a fresh
        // model worth training on — the update goes to the *current* home.
        // Without failover a model from any other node is as unexpected as
        // a wrong message kind, and just as reachable from the network.
        if self.failover.is_some() {
            self.heard = true;
        } else if from != self.server {
            env.add_counter("net.unexpected", 1);
            return;
        }
        // Local training: real gradient computation plus the emulated
        // heterogeneous training delay in virtual time.
        env.span_enter("client.round");
        // The trainer's RNG and buffers, and the encoder's residual, scratch
        // and rounding counter, advance in round order: the previous round's
        // job finishes before this one is built.
        if let Some(previous) = self.last_round.take() {
            previous.wait();
        }
        let num_samples = self.trainer.lock().expect(POISONED).num_samples();
        let len = params.len();
        // What the dense upload costs on the wire.
        let raw = msg::client_update_size(&params);
        // The lock is free: the previous round has run.
        let codec = self.codec.as_ref().map(|encoder| {
            let locked = encoder.lock().expect(POISONED);
            let (delta, encoded_len) = (locked.config().delta, locked.encoded_len(len));
            (Arc::clone(encoder), delta, encoded_len)
        });
        let bytes = match &codec {
            Some((_, _, encoded_len)) => msg::encoded_update_size(*encoded_len),
            None => raw,
        };
        env.busy(self.train_delay);
        self.updates_sent += 1;
        env.add_counter("updates.sent", 1);
        if codec.is_some() {
            // Booked from the lengths alone: the bytes may not exist yet.
            let (raw, encoded) = (raw as u64, bytes as u64);
            self.ledger.0 += raw;
            self.ledger.1 += encoded;
            env.add_counter("net.bytes.raw", raw);
            env.add_counter("net.bytes.encoded", encoded);
            env.add_counter("net.bytes.saved", raw.saturating_sub(encoded));
            env.gauge_set(
                "codec.compression_ratio",
                self.ledger.0 as f64 / self.ledger.1 as f64,
            );
        }
        let train = {
            let (trainer, epochs) = (Arc::clone(&self.trainer), self.epochs);
            move |params: &mut ParamVec| trainer.lock().expect(POISONED).train(params, lr, epochs)
        };
        match codec {
            Some((encoder, delta, encoded_len)) => {
                let stream = env.me() as u64;
                self.send_round(env, len, bytes, move || {
                    let mut params = params;
                    // Delta encoding needs the exact model the server sent:
                    // keep a handle to it, so training writes to storage of
                    // its own. Where the handle is the server's own storage
                    // (the DES), the server hashed it already.
                    let reference = delta.then(|| params.clone());
                    train(&mut params);
                    let (ref_slice, ref_hash) = match &reference {
                        Some(r) => (r.as_slice(), r.content_hash()),
                        None => (&[][..], 0),
                    };
                    let mut payload = Vec::with_capacity(encoded_len);
                    encoder.lock().expect(POISONED).encode(
                        stream,
                        params.as_slice(),
                        ref_slice,
                        ref_hash,
                        &mut payload,
                    );
                    FlMsg::EncodedUpdate {
                        payload,
                        age,
                        num_samples,
                    }
                });
            }
            None => self.send_round(env, len, bytes, move || {
                train(&mut params);
                FlMsg::ClientUpdate {
                    params,
                    age,
                    num_samples,
                }
            }),
        }
        env.span_exit("client.round");
    }

    fn on_restart(&mut self, env: &mut dyn Env<FlMsg>) {
        // A returning client — crash restart or an availability window
        // closing — re-announces itself. Its in-flight round is gone (any
        // model the server sent meanwhile was discarded), so without this
        // knock the client would sit idle forever waiting for a model that
        // already evaporated.
        env.send(self.server, FlMsg::ClientHello);
        if let Some(f) = &self.failover {
            // The liveness timer chain broke while the node was away;
            // re-arm it and let the knock's reply count as fresh evidence.
            self.heard = false;
            env.set_timer(f.timeout, 0);
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, _tag: u64) {
        // Liveness check: a full period of silence means the server is
        // gone (crashed, partitioned, or departed without re-homing us) —
        // advance to the next candidate and knock.
        let Some(f) = &self.failover else {
            return;
        };
        let timeout = f.timeout;
        if !self.heard {
            let count = f.candidates.len();
            let next = f.candidates[self.next_candidate % count];
            self.next_candidate = (self.next_candidate + 1) % count;
            if next != self.server {
                env.add_counter("membership.client_failovers", 1);
                self.rehome_to(env, next);
            } else {
                // Sole candidate is the current server: just knock again.
                env.send(next, FlMsg::ClientHello);
            }
        }
        self.heard = false;
        env.set_timer(timeout, 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::MockEnv;
    use crate::training::MeanTargetTrainer;
    use crate::update_codec::param_hash;
    use spyker_simnet::{
        AvailabilityPlan, ByzantineAttack, FaultPlan, NetworkConfig, Region, Simulation, WireSize,
    };

    /// A bare-bones server that sends one model and records the reply.
    struct OneShotServer {
        client: NodeId,
        reply: Option<(ParamVec, f64, usize)>,
        reply_time: Option<SimTime>,
    }

    impl Node<FlMsg> for OneShotServer {
        fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
            env.send(
                self.client,
                FlMsg::ModelToClient {
                    params: ParamVec::zeros(2),
                    age: 7.0,
                    lr: 0.5,
                },
            );
        }
        fn on_message(&mut self, env: &mut dyn Env<FlMsg>, _from: NodeId, msg: FlMsg) {
            if let FlMsg::ClientUpdate {
                params,
                age,
                num_samples,
            } = msg
            {
                self.reply = Some((params, age, num_samples));
                self.reply_time = Some(env.now());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn client_trains_echoes_age_and_charges_delay() {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 0);
        let server = sim.add_node(
            Box::new(OneShotServer {
                client: 1,
                reply: None,
                reply_time: None,
            }),
            Region::Paris,
        );
        let trainer = MeanTargetTrainer::new(vec![1.0, 1.0], 13);
        sim.add_node(
            Box::new(FlClient::new(
                server,
                Box::new(trainer),
                4,
                SimTime::from_millis(150),
            )),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(5));
        let srv = sim
            .node(0)
            .as_any()
            .downcast_ref::<OneShotServer>()
            .unwrap();
        let (params, age, n) = srv.reply.as_ref().expect("no update received");
        assert_eq!(*age, 7.0, "age must be echoed back");
        assert_eq!(*n, 13);
        // 4 epochs at lr 0.5 from 0 toward 1: 1 - 0.5^4 = 0.9375.
        assert!((params.as_slice()[0] - 0.9375).abs() < 1e-5);
        // Delivery: 10 ms there + 150 ms training + 10 ms back (+ tiny ser).
        let t = srv.reply_time.unwrap();
        assert!(
            t >= SimTime::from_millis(170) && t < SimTime::from_millis(172),
            "got {t}"
        );
        assert_eq!(sim.metrics().counter("updates.sent"), 1);
    }

    #[test]
    fn model_from_another_server_is_a_counted_drop() {
        // Node 5 of a 6-node deployment, reporting to server 0.
        let mut env = MockEnv::new(5, 6);
        let trainer = MeanTargetTrainer::new(vec![1.0, 1.0], 3);
        let mut client = FlClient::new(0, Box::new(trainer), 1, SimTime::ZERO);
        let model = || FlMsg::ModelToClient {
            params: ParamVec::zeros(2),
            age: 1.0,
            lr: 0.5,
        };
        client.on_message(&mut env, 1, model());
        assert_eq!(env.counter("net.unexpected"), 1);
        assert_eq!(env.counter("updates.sent"), 0);
        assert!(env.sent.is_empty(), "no update may answer a stranger");
        // Its own server's model still trains and is answered.
        client.on_message(&mut env, 0, model());
        assert_eq!(env.counter("updates.sent"), 1);
        assert!(matches!(
            env.sent.as_slice(),
            [(0, FlMsg::ClientUpdate { .. })]
        ));
    }

    #[test]
    fn client_is_idle_until_poked() {
        let mut sim = Simulation::new(NetworkConfig::aws(), 0);
        let trainer = MeanTargetTrainer::new(vec![0.0], 1);
        sim.add_node(
            Box::new(FlClient::new(0, Box::new(trainer), 1, SimTime::ZERO)),
            Region::Paris,
        );
        let report = sim.run(SimTime::from_secs(1));
        assert_eq!(report.events_processed, 1); // just its own start event
    }

    /// Large enough for a DES client to train off the event loop.
    const DIM: usize = SHARE_FROM;

    /// A trainer the test can inspect while a client owns it: its steps,
    /// and the first coordinate of every model it trained, in the order it
    /// trained them.
    #[derive(Clone)]
    struct Shared {
        trainer: Arc<Mutex<MeanTargetTrainer>>,
        rounds: Arc<Mutex<Vec<f32>>>,
    }

    impl Shared {
        fn new() -> Self {
            Self {
                trainer: Arc::new(Mutex::new(MeanTargetTrainer::new(vec![1.0; DIM], 5))),
                rounds: Arc::default(),
            }
        }
        fn steps(&self) -> u64 {
            self.trainer.lock().unwrap().steps_taken()
        }
        fn rounds(&self) -> Vec<f32> {
            self.rounds.lock().unwrap().clone()
        }
    }

    impl LocalTrainer for Shared {
        fn train(&mut self, params: &mut ParamVec, lr: f32, epochs: usize) {
            self.rounds.lock().unwrap().push(params.as_slice()[0]);
            self.trainer.lock().unwrap().train(params, lr, epochs);
        }
        fn num_samples(&self) -> usize {
            self.trainer.lock().unwrap().num_samples()
        }
    }

    /// Sends `models` to client 1 back to back at start and keeps (or, with
    /// `keep` off, drops) every update unread.
    struct BackToBack {
        models: Vec<ParamVec>,
        keep: bool,
        kept: Vec<FlMsg>,
    }

    impl Node<FlMsg> for BackToBack {
        fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
            for params in &self.models {
                let (params, age, lr) = (params.clone(), 0.0, 0.5);
                env.send(1, FlMsg::ModelToClient { params, age, lr });
            }
        }
        fn on_message(&mut self, _env: &mut dyn Env<FlMsg>, _from: NodeId, msg: FlMsg) {
            if self.keep {
                self.kept.push(msg);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const EPOCHS: usize = 3;

    /// A simulation whose links deliver everything.
    fn lossless() -> Simulation<FlMsg> {
        Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 0)
    }

    /// A simulation that drops every upload from client 1 to server 0.
    fn lossy() -> Simulation<FlMsg> {
        let uploads = FaultPlan::none().drop_link_window(1, 0, SimTime::ZERO, SimTime::MAX);
        lossless().with_faults(uploads)
    }

    /// Runs `BackToBack` in `sim` against one client training with
    /// `trainer` and, with `codec`, encoding with it; returns the finished
    /// simulation.
    fn back_to_back(
        mut sim: Simulation<FlMsg>,
        models: Vec<ParamVec>,
        keep: bool,
        trainer: Box<dyn LocalTrainer>,
        codec: Option<CodecConfig>,
    ) -> Simulation<FlMsg> {
        let server = BackToBack {
            models,
            keep,
            kept: Vec::new(),
        };
        sim.add_node(Box::new(server), Region::Paris);
        let mut client = FlClient::new(0, trainer, EPOCHS, SimTime::from_millis(150));
        if let Some(codec) = codec {
            client = client.with_update_codec(codec);
        }
        sim.add_node(Box::new(client), Region::Paris);
        sim.run(SimTime::from_secs(5));
        sim
    }

    /// The updates `BackToBack` kept.
    fn kept(sim: &mut Simulation<FlMsg>) -> Vec<FlMsg> {
        let server = sim.node_mut(0).as_any_mut().downcast_mut::<BackToBack>();
        std::mem::take(&mut server.unwrap().kept)
    }

    /// `true` when the client's last round went out as a computed send
    /// whose job the runtime took: the client holds a handle on it.
    fn deferred(sim: &Simulation<FlMsg>) -> bool {
        let client = sim.node(1).as_any().downcast_ref::<FlClient>();
        client.unwrap().last_round.is_some()
    }

    /// The two models every back-to-back run below sends.
    fn two_models() -> Vec<ParamVec> {
        vec![ParamVec::zeros(DIM), ParamVec::from_vec(vec![0.5; DIM])]
    }

    #[test]
    fn unread_back_to_back_rounds_train_as_inline_rounds_do() {
        let models = two_models();
        let trainer = Shared::new();
        let mut sim = back_to_back(
            lossless(),
            models.clone(),
            true,
            Box::new(trainer.clone()),
            None,
        );
        assert!(deferred(&sim), "the rounds left the event loop");
        let kept: Vec<ParamVec> = kept(&mut sim)
            .into_iter()
            .map(|msg| match msg {
                FlMsg::ClientUpdate { params, .. } => params,
                other => panic!("not a dense update: {other:?}"),
            })
            .collect();
        assert_eq!(kept.len(), 2);
        // The same rounds, inline, on a trainer of their own.
        let mut inline = MeanTargetTrainer::new(vec![1.0; DIM], 5);
        let expected: Vec<ParamVec> = models
            .into_iter()
            .map(|mut p| {
                inline.train(&mut p, 0.5, EPOCHS);
                p
            })
            .collect();
        // Round 2 only started once round 1 had run.
        assert_eq!(kept, expected);
        assert_eq!(trainer.steps(), inline.steps_taken());
    }

    #[test]
    fn unread_encoded_rounds_encode_as_inline_rounds_do() {
        let codec = CodecConfig::paper_pipeline();
        let models = two_models();
        let trainer = Shared::new();
        let mut sim = back_to_back(
            lossless(),
            models.clone(),
            true,
            Box::new(trainer.clone()),
            Some(codec),
        );
        assert!(deferred(&sim), "the rounds left the event loop");
        let kept: Vec<Vec<u8>> = kept(&mut sim)
            .into_iter()
            .map(|msg| match msg {
                FlMsg::EncodedUpdate { payload, .. } => payload,
                other => panic!("not an encoded update: {other:?}"),
            })
            .collect();
        // The same rounds, inline, on a trainer and an encoder of their own.
        let mut inline = MeanTargetTrainer::new(vec![1.0; DIM], 5);
        let mut encoder = UpdateEncoder::new(codec);
        let expected: Vec<Vec<u8>> = models
            .into_iter()
            .map(|reference| {
                let mut p = reference.clone();
                inline.train(&mut p, 0.5, EPOCHS);
                let hash = param_hash(reference.as_slice());
                let mut payload = Vec::new();
                encoder.encode(1, p.as_slice(), reference.as_slice(), hash, &mut payload);
                payload
            })
            .collect();
        assert_eq!(kept, expected);
        assert_eq!(trainer.steps(), inline.steps_taken());
    }

    /// Runs two rounds in `sim`, of which `lost` updates are lost as the
    /// counter `counted` says; checks that every round ran once, in order.
    fn undelivered(sim: impl Fn() -> Simulation<FlMsg>, counted: &str, lost: u64) {
        for codec in [None, Some(CodecConfig::paper_pipeline())] {
            let trainer = Shared::new();
            let mut sim = back_to_back(sim(), two_models(), true, Box::new(trainer.clone()), codec);
            assert!(deferred(&sim));
            assert_eq!(sim.metrics().counter(counted), lost, "{counted}");
            assert_eq!(kept(&mut sim).len() as u64, 2 - lost);
            drop(sim);
            assert_eq!(trainer.rounds(), [0.0, 0.5], "{counted}, {codec:?}");
            assert_eq!(trainer.steps(), 2 * EPOCHS as u64);
        }
    }

    #[test]
    fn a_dropped_update_still_ran_once_in_round_order() {
        let faults = FaultPlan::none().drop_nth(1, 0, 0);
        undelivered(
            || lossless().with_faults(faults.clone()),
            "fault.dropped",
            1,
        );
    }

    #[test]
    fn updates_an_offline_server_discards_still_ran_once_in_round_order() {
        let (start, end) = (SimTime::from_millis(100), SimTime::from_secs(5));
        let offline = AvailabilityPlan::none().offline_window(0, start, end);
        let sim = || lossless().with_availability(offline.clone());
        undelivered(sim, "sim.availability.discarded", 2);
    }

    /// Sends its uploads to server 0 at start: each as it is, or each
    /// through a computed send whose job returns it.
    struct Uploader {
        uploads: Vec<FlMsg>,
        computed: bool,
    }

    impl Node<FlMsg> for Uploader {
        fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
            for msg in std::mem::take(&mut self.uploads) {
                if self.computed {
                    let (bytes, kind) = (msg.wire_size(), msg.kind());
                    env.send_computed(0, bytes, kind, Box::new(move || msg));
                } else {
                    env.send(0, msg);
                }
            }
        }
        fn on_message(&mut self, _env: &mut dyn Env<FlMsg>, _from: NodeId, _msg: FlMsg) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_byzantine_senders_computed_uploads_are_corrupted_as_inline_ones() {
        let uploads = || {
            let reference = vec![0.0; DIM];
            let trained: Vec<f32> = (0..DIM).map(|i| (i as f32 * 0.01).sin()).collect();
            let mut payload = Vec::new();
            let mut encoder = UpdateEncoder::new(CodecConfig::paper_pipeline());
            encoder.encode(
                1,
                &trained,
                &reference,
                param_hash(&reference),
                &mut payload,
            );
            let params = ParamVec::from_vec(trained);
            let (age, num_samples) = (1.0, 5);
            vec![
                FlMsg::ClientUpdate {
                    params: params.clone(),
                    age,
                    num_samples,
                },
                FlMsg::EncodedUpdate {
                    payload,
                    age,
                    num_samples,
                },
                FlMsg::ClientUpdate {
                    params,
                    age,
                    num_samples,
                },
            ]
        };
        let clean: Vec<_> = uploads().iter().map(crate::codec::encode).collect();
        for attack in [
            ByzantineAttack::GaussianNoise { sigma: 0.5 },
            ByzantineAttack::NanInject { prob: 0.3 },
            ByzantineAttack::SignFlip,
        ] {
            let run = |computed| {
                let faults = FaultPlan::none().byzantine(1, attack.clone());
                let mut sim = lossless().with_faults(faults);
                let server = BackToBack {
                    models: Vec::new(),
                    keep: true,
                    kept: Vec::new(),
                };
                sim.add_node(Box::new(server), Region::Paris);
                let uploads = uploads();
                sim.add_node(Box::new(Uploader { uploads, computed }), Region::Paris);
                sim.run(SimTime::from_secs(1));
                let counts = [
                    "fault.byzantine",
                    &format!("fault.byzantine.{}", attack.label()),
                ]
                .map(|name| sim.metrics().counter(name));
                let bytes: Vec<_> = kept(&mut sim).iter().map(crate::codec::encode).collect();
                (counts, bytes)
            };
            let inline = run(false);
            assert!(inline.0[0] > 0, "{attack:?} altered nothing");
            assert_ne!(inline.1, clean, "{attack:?}");
            assert_eq!(run(true), inline, "{attack:?}");
        }
    }

    #[test]
    fn the_codec_ledger_books_every_upload_at_send() {
        let mut env = MockEnv::new(1, 2);
        let trainer = MeanTargetTrainer::new(vec![1.0; 100], 3);
        let mut client = FlClient::new(0, Box::new(trainer), 1, SimTime::ZERO)
            .with_update_codec(CodecConfig::paper_pipeline());
        assert_eq!(client.codec_ledger(), Some((0, 0)));
        for _ in 0..2 {
            let (params, age, lr) = (ParamVec::zeros(100), 0.0, 0.5);
            client.on_message(&mut env, 0, FlMsg::ModelToClient { params, age, lr });
        }
        // Dense: 4 · 100 + 8 + 16 bytes. Encoded: 13 + 4 + 4 + 4 + 1 bytes
        // of payload (one kept coordinate) + 20.
        assert_eq!(client.codec_ledger(), Some((2 * 424, 2 * 46)));
        assert_eq!(env.counter("net.bytes.raw"), 2 * 424);
        assert_eq!(env.counter("net.bytes.encoded"), 2 * 46);
        assert_eq!(env.counter("net.bytes.saved"), 2 * (424 - 46));
        let plain = FlClient::new(
            0,
            Box::new(MeanTargetTrainer::new(vec![], 1)),
            1,
            SimTime::ZERO,
        );
        assert_eq!(plain.codec_ledger(), None);
    }

    #[test]
    fn a_dropped_simulation_has_run_every_round() {
        for codec in [None, Some(CodecConfig::paper_pipeline())] {
            let trainer = Shared::new();
            let sim = back_to_back(
                lossy(),
                two_models(),
                false,
                Box::new(trainer.clone()),
                codec,
            );
            drop(sim);
            // Nothing held the updates; dropping the client waited for its
            // last round, and each job ran once.
            assert_eq!(trainer.steps(), 2 * EPOCHS as u64);
        }
    }

    /// Panics in round `.1`.
    struct FailsInRound(u32, u32);

    impl LocalTrainer for FailsInRound {
        fn train(&mut self, _params: &mut ParamVec, _lr: f32, _epochs: usize) {
            self.0 += 1;
            assert!(self.0 != self.1, "trainer failed in round {}", self.0);
        }
        fn num_samples(&self) -> usize {
            1
        }
    }

    #[test]
    #[should_panic(expected = "trainer failed in round 2")]
    fn a_panicking_round_fails_the_run_with_its_own_message() {
        // Nothing reads an update: round 3, waiting for round 2, re-raises.
        back_to_back(
            lossy(),
            vec![ParamVec::zeros(DIM); 3],
            false,
            Box::new(FailsInRound(0, 2)),
            None,
        );
    }

    #[test]
    #[should_panic(expected = "trainer failed in round 2")]
    fn a_panicking_last_round_fails_at_drop_with_its_own_message() {
        // Nothing reads an update and no round follows: dropping the client
        // re-raises.
        back_to_back(
            lossy(),
            vec![ParamVec::zeros(DIM); 2],
            false,
            Box::new(FailsInRound(0, 2)),
            Some(CodecConfig::paper_pipeline()),
        );
    }
}
