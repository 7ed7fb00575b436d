//! The asynchronous FL client actor (Alg. 1, `LocalTraining`).

use std::any::Any;

use spyker_simnet::{Env, Node, NodeId, SimTime};

use crate::msg::FlMsg;
use crate::training::LocalTrainer;
use crate::update_codec::{param_hash, CodecConfig, UpdateEncoder};

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
pub struct FlClient {
    server: NodeId,
    trainer: Box<dyn LocalTrainer>,
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
    /// Update compression; `None` sends dense `ClientUpdate`s.
    codec: Option<UpdateEncoder>,
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
            trainer,
            epochs,
            train_delay,
            updates_sent: 0,
            failover: None,
            heard: false,
            next_candidate: 0,
            rehomed: 0,
            codec: None,
        }
    }

    /// Enables update compression (builder style). See
    /// [`crate::update_codec`].
    ///
    /// # Panics
    ///
    /// Panics if `codec` fails [`CodecConfig::validate`].
    pub fn with_update_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = Some(UpdateEncoder::new(codec));
        self
    }

    /// The client's cumulative `(raw, encoded)` byte ledger, when a codec
    /// is active — what its dense uploads would have cost on the wire vs
    /// what the encoded ones did (reconciled against the `net.bytes.*`
    /// counters by the simtest byte-accounting oracle).
    pub fn codec_ledger(&self) -> Option<(u64, u64)> {
        self.codec.as_ref().map(UpdateEncoder::ledger)
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
        // Delta encoding needs the exact model the server sent: keep a handle
        // to it, so training below writes to storage of its own.
        let reference = match &self.codec {
            Some(enc) if enc.config().delta => Some(params.clone()),
            _ => None,
        };
        self.trainer.train(&mut params, lr, self.epochs);
        env.busy(self.train_delay);
        self.updates_sent += 1;
        env.add_counter("updates.sent", 1);
        let num_samples = self.trainer.num_samples();
        match &mut self.codec {
            Some(enc) => {
                // What the dense upload would have cost on the wire.
                let raw = (params.wire_size() + 16) as u64;
                let (ref_slice, ref_hash) = match &reference {
                    Some(r) => (r.as_slice(), param_hash(r.as_slice())),
                    None => (&[][..], 0),
                };
                let mut payload = Vec::new();
                enc.encode(
                    env.me() as u64,
                    params.as_slice(),
                    ref_slice,
                    ref_hash,
                    &mut payload,
                );
                let encoded = (payload.len() + 20) as u64;
                enc.note_sent(raw, encoded);
                let (total_raw, total_encoded) = enc.ledger();
                env.add_counter("net.bytes.raw", raw);
                env.add_counter("net.bytes.encoded", encoded);
                env.add_counter("net.bytes.saved", raw.saturating_sub(encoded));
                env.gauge_set(
                    "codec.compression_ratio",
                    total_raw as f64 / total_encoded as f64,
                );
                env.send(
                    self.server,
                    FlMsg::EncodedUpdate {
                        payload,
                        age,
                        num_samples,
                    },
                );
            }
            None => env.send(
                self.server,
                FlMsg::ClientUpdate {
                    params,
                    age,
                    num_samples,
                },
            ),
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
        let Some(f) = self.failover.clone() else {
            return;
        };
        if !self.heard {
            let next = f.candidates[self.next_candidate % f.candidates.len()];
            self.next_candidate = (self.next_candidate + 1) % f.candidates.len();
            if next != self.server {
                env.add_counter("membership.client_failovers", 1);
                self.rehome_to(env, next);
            } else {
                // Sole candidate is the current server: just knock again.
                env.send(next, FlMsg::ClientHello);
            }
        }
        self.heard = false;
        env.set_timer(f.timeout, 0);
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
    use crate::params::ParamVec;
    use crate::test_support::MockEnv;
    use crate::training::MeanTargetTrainer;
    use spyker_simnet::{NetworkConfig, Region, Simulation};

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
}
