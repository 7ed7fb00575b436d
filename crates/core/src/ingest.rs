//! Alg. 1 `Aggregation`: how a client's bytes become a model step.
//!
//! Every per-update server — [`crate::server::SpykerServer`],
//! [`crate::sync_spyker::SyncSpykerServer`], the FedAsync baseline and (all
//! but the per-center step) [`crate::cluster`] — treats a client upload the
//! same way: decode → validation gate → staleness-weighted integrate → age
//! the model → count the update and decay the client's learning rate → reply
//! at once (Alg. 1 ll. 14–19). [`UpdateIngest`] is the one copy of that
//! sequence and of its state: the client book, the per-client history of
//! sent models that delta-encoded uploads refer to (DESIGN.md §16), the
//! gate and robust buffer, and the only `ModelToClient` builder — so no
//! reply can forget to record its model in that history.
//!
//! What differs between servers is data, fixed at construction: the
//! staleness policy, the mixing rate, the decay schedule, the gate and the
//! aggregation strategy. The model and its age stay owned by the caller and
//! are lent to each call.

use std::collections::{HashMap, VecDeque};

use spyker_simnet::{Env, NodeId};

use crate::agg::{compounded_step, gate, AggregationStrategy, RobustBuffer, ValidationConfig};
use crate::config::SpykerConfig;
use crate::decay::{DecayConfig, UpdateCounts};
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::staleness::ClientStaleness;
use crate::update_codec::{CodecConfig, UpdateDecoder};

/// How many recently-sent models a server remembers per client for
/// delta-reference resolution. Several models can be legitimately in
/// flight toward one client (the round reply plus watchdog re-pokes), so
/// one slot is not enough; beyond a few, an update referencing an older
/// model is stale enough that re-sending the current model is the better
/// recovery anyway (`codec.ref_miss`).
const REF_HISTORY_DEPTH: usize = 4;

/// A client upload, as the gate and the integration step take it.
pub enum Upload<'a> {
    /// The trained model `u`, and whether every value of it is finite
    /// when that is known already (a decoder's flag), so that the gate
    /// does not scan the values again.
    Model(&'a ParamVec, Option<bool>),
    /// `u − params` for the very `params` it is integrated into, and
    /// whether every value of `u` was finite: the same bits of every result
    /// ([`UpdateIngest::encoded_update`]). A payload of another dimension
    /// than the model's leaves `u` itself, which the dimension check drops.
    Delta(ParamVec, bool),
}

/// The shared update-ingest state of one per-update server (see the
/// [module docs](self)).
pub struct UpdateIngest {
    clients: Vec<NodeId>,
    local_idx: HashMap<NodeId, usize>,
    /// Learning rate last handed to each client (what its next update
    /// will have been trained with).
    client_lr: Vec<f32>,
    counts: UpdateCounts,
    decay: DecayConfig,
    /// Scale each update's weight by the learning rate it was trained at
    /// (see [`SpykerConfig::decay_weighted_aggregation`]).
    decay_weighted: bool,
    staleness: ClientStaleness,
    /// The server's mixing rate `η`: an update of weight `w` moves the
    /// model by `η · w`.
    rate: f32,
    /// Age the model by each update's weight instead of by one (see
    /// [`SpykerConfig::fractional_age`]).
    fractional_age: bool,

    codec: Option<CodecConfig>,
    decoder: UpdateDecoder,
    /// The dim-sized buffer [`UpdateIngest::decode`] decodes into, parked
    /// here between uploads (see [`UpdateIngest::recycle_update`]).
    decode_buf: Vec<f32>,
    /// Per-client history of recently-sent models, keyed by content hash.
    /// Only populated when the codec uses delta encoding. The entries are
    /// handles: every client sent one model version refers to the same
    /// storage, which is also the reply's, and which hashed it once.
    sent_models: HashMap<NodeId, VecDeque<(u64, ParamVec)>>,

    validation: ValidationConfig,
    /// `None` for the paper-exact [`AggregationStrategy::Mean`].
    robust: Option<RobustBuffer>,
    /// Reused output buffer for robust flushes.
    flush_buf: ParamVec,
    processed: u64,
    rejected: u64,
}

impl UpdateIngest {
    /// An ingest path serving `clients`, every one starting at
    /// `decay.eta_init`, mixing updates in at `rate` times their
    /// `staleness` weight; every update ages the model by one and there is
    /// no update codec.
    ///
    /// # Panics
    ///
    /// Panics on an invalid robust `aggregation` (see
    /// [`RobustBuffer::from_strategy`]).
    pub fn new(
        clients: Vec<NodeId>,
        decay: DecayConfig,
        staleness: ClientStaleness,
        rate: f32,
        validation: ValidationConfig,
        aggregation: AggregationStrategy,
    ) -> Self {
        Self {
            local_idx: clients.iter().enumerate().map(|(k, &id)| (id, k)).collect(),
            client_lr: vec![decay.eta_init; clients.len()],
            counts: UpdateCounts::new(clients.len()),
            clients,
            decay,
            decay_weighted: false,
            staleness,
            rate,
            fractional_age: false,
            codec: None,
            decoder: UpdateDecoder::new(),
            decode_buf: Vec::new(),
            sent_models: HashMap::new(),
            validation,
            robust: RobustBuffer::from_strategy(aggregation),
            flush_buf: ParamVec::zeros(0),
            processed: 0,
            rejected: 0,
        }
    }

    /// The ingest path a [`SpykerConfig`] describes.
    pub fn from_config(clients: Vec<NodeId>, cfg: &SpykerConfig) -> Self {
        Self {
            decay_weighted: cfg.decay_weighted_aggregation && cfg.decay.eta_init > 0.0,
            fractional_age: cfg.fractional_age,
            codec: cfg.codec,
            ..Self::new(
                clients,
                cfg.decay,
                cfg.staleness,
                cfg.server_lr,
                cfg.validation,
                cfg.aggregation,
            )
        }
    }

    /// The clients this server currently serves, in local-index order.
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// Local index of client `id`, if this server serves it.
    pub fn lookup(&self, id: NodeId) -> Option<usize> {
        self.local_idx.get(&id).copied()
    }

    /// Registers a walk-in client at the initial learning rate and returns
    /// its local index (the caller has checked it is not yet known).
    pub fn adopt(&mut self, id: NodeId) -> usize {
        let k = self.clients.len();
        self.clients.push(id);
        self.local_idx.insert(id, k);
        self.client_lr.push(self.decay.eta_init);
        self.counts.add_client();
        k
    }

    /// Forgets every client (they were re-homed elsewhere). The reference
    /// history survives until [`UpdateIngest::forget_sent_models`]: a
    /// draining server still decodes its former clients' in-flight uploads.
    pub fn clear_clients(&mut self) {
        self.clients.clear();
        self.local_idx.clear();
        self.client_lr.clear();
        self.counts = UpdateCounts::new(0);
    }

    /// Drops the delta-reference history (no encoded upload from a former
    /// client can arrive any more).
    pub fn forget_sent_models(&mut self) {
        self.sent_models.clear();
    }

    /// Per-client update counts (local-index order) and their mean `ū`.
    pub fn update_counts(&self) -> &UpdateCounts {
        &self.counts
    }

    /// Learning rate last handed to local client `k`.
    pub fn client_lr(&self, k: usize) -> f32 {
        self.client_lr[k]
    }

    /// Alg. 1 ll. 14 and 16 for an update of client `k`, trained from a
    /// model of age `update_age`, arriving at a model of age `model_age`:
    /// its aggregation weight `w` and how much integrating it ages the
    /// model. With decay-weighted aggregation `w` also shrinks with the
    /// learning rate the update was trained at, so decayed clients'
    /// near-echo updates stop anchoring the model.
    pub fn weigh(&self, k: usize, model_age: f64, update_age: f64) -> (f32, f64) {
        let mut w = self.staleness.weight(model_age, update_age);
        if self.decay_weighted {
            w *= self.client_lr[k] / self.decay.eta_init;
        }
        let age_step = if self.fractional_age {
            f64::from(w.min(1.0))
        } else {
            1.0
        };
        (w, age_step)
    }

    /// Client updates integrated so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Updates rejected so far (gate rejections plus whatever the owner
    /// reported through [`UpdateIngest::reject`]).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Counts one rejected update under `agg.rejected` and `cause`.
    pub fn reject(&mut self, env: &mut dyn Env<FlMsg>, cause: &'static str) {
        self.rejected += 1;
        env.add_counter("agg.rejected", 1);
        env.add_counter(cause, 1);
    }

    /// The validation gate: `false` (counted, with its cause) for a
    /// non-finite, norm-exploded or over-stale update, which must then not
    /// touch `current`; an admitted update's staleness is observed. An
    /// update of another dimension than the model — any frame can declare
    /// one — is not an update at all: a counted `net.unexpected` drop
    /// (DESIGN.md §13) ahead of the gate, whose norm check and every
    /// integration step after it assume equal lengths.
    pub fn admit(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        current: &ParamVec,
        model_age: f64,
        update: &Upload<'_>,
        update_age: f64,
    ) -> bool {
        let (update, finite, is_delta) = match update {
            Upload::Model(update, finite) => (*update, *finite, false),
            Upload::Delta(delta, finite) => (delta, Some(*finite), true),
        };
        if update.len() != current.len() {
            env.add_counter("net.unexpected", 1);
            return false;
        }
        let finite = || finite.unwrap_or_else(|| update.is_finite());
        // `l2_norm` of `u − a` sums the squares `l2_distance(u, a)` does.
        let distance = || {
            if is_delta {
                update.l2_norm()
            } else {
                update.l2_distance(current)
            }
        };
        let verdict = gate(&self.validation, finite, distance, model_age, update_age);
        match verdict {
            Ok(()) => {
                env.observe("agg.staleness", model_age - update_age);
                true
            }
            Err(reason) => {
                self.reject(env, reason.counter());
                false
            }
        }
    }

    /// The gate for a *peer server's* model about to be merged into
    /// `current`: `false`, counted as `agg.rejected.peer`, for one of
    /// another dimension — any frame can declare one, and no merge step
    /// takes it — or, under `reject_nonfinite`, a non-finite one (a peer
    /// poisoned before this layer existed, or one whose own gate is off).
    pub fn admit_peer(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        current: &ParamVec,
        peer: &ParamVec,
        peer_age: f64,
    ) -> bool {
        let ok = peer.len() == current.len()
            && !(self.validation.reject_nonfinite && !(peer_age.is_finite() && peer.is_finite()));
        if !ok {
            self.reject(env, "agg.rejected.peer");
        }
        ok
    }

    /// Alg. 1 ll. 17–18 for an integrated update of client `k`: count it
    /// and decay the learning rate the client is handed next.
    pub fn complete(&mut self, env: &mut dyn Env<FlMsg>, k: usize) {
        let u_k = self.counts.record(k);
        self.client_lr[k] = self.decay.decay(u_k, self.counts.mean());
        self.processed += 1;
        env.add_counter("updates.processed", 1);
    }

    /// Alg. 1 `Aggregation` for one dense update of local client `k`:
    /// gate, weigh, integrate into `params`, age the model, account, reply.
    /// A rejected update leaves `params` and `age` untouched but is still
    /// answered with the current model — the protocol is purely reactive,
    /// so a silent reject would starve even a Byzantine client's honest
    /// successor on the same device. `reply` is `false` only for an update
    /// relayed by a draining peer: its client is also being welcomed
    /// through its `ClientHello`, and two answers would fork its round loop
    /// into two always-in-flight update streams. Returns whether the update
    /// was integrated.
    #[allow(clippy::too_many_arguments)] // the caller's model and age, and one update for them
    pub fn client_update(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        params: &mut ParamVec,
        age: &mut f64,
        k: usize,
        upload: Upload<'_>,
        update_age: f64,
        reply: bool,
    ) -> bool {
        let accepted = self.admit(env, params, *age, &upload, update_age);
        if accepted {
            let (w, age_step) = self.weigh(k, *age, update_age);
            if let Some(buf) = &mut self.robust {
                // Robust path: buffer the update's delta; every `batch`
                // accepted deltas, fold one robust estimate of the batch
                // into the model at the batch's mean weight. Deltas are
                // built in buffers recycled from earlier flushes (a decoded
                // delta swaps its buffer for one) and the estimate lands in
                // `flush_buf`, so a long run's flush path allocates no
                // dim-sized buffer after the first full batch.
                match upload {
                    Upload::Model(update, _) => buf.push_difference(update, params, w),
                    Upload::Delta(delta, _) => {
                        self.decode_buf = buf.take_delta(0).into_vec();
                        buf.push(delta, w);
                    }
                }
                if buf.is_ready() {
                    let n = buf.len();
                    let mean_w = buf.flush_into(&mut self.flush_buf);
                    // One batch step integrates as much as the `n`
                    // sequential lerps the Mean path would have applied.
                    params.axpy(compounded_step(self.rate * mean_w, n), &self.flush_buf);
                    env.add_counter("agg.robust.flushes", 1);
                }
            } else {
                // Paper-exact path (Mean): integrate immediately. With
                // `d = u − a`, `a + t·d` is `lerp_toward`'s `a + t·(u − a)`.
                match upload {
                    Upload::Model(update, _) => params.lerp_toward(update, self.rate * w),
                    Upload::Delta(delta, _) => {
                        params.axpy(self.rate * w, &delta);
                        self.recycle_update(delta);
                    }
                }
            }
            *age += age_step;
            self.complete(env, k);
        } else if let Upload::Delta(delta, _) = upload {
            self.recycle_update(delta);
        }
        if reply {
            self.send_model(env, self.clients[k], self.client_lr[k], params, *age);
        }
        accepted
    }

    /// Decodes an encoded client payload against the per-client reference
    /// history, less `base` when given (see [`UpdateDecoder::decode_minus`]),
    /// and tells whether every decoded value is finite. Counts the outcome;
    /// `None` means the update must be dropped (reference miss or malformed
    /// payload). The result lives in this path's one decode buffer: hand it
    /// back through [`UpdateIngest::recycle_update`] once it has been
    /// integrated and the next upload decodes without touching the heap.
    pub fn decode(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        from: NodeId,
        payload: &[u8],
        base: Option<&ParamVec>,
    ) -> Option<(ParamVec, bool)> {
        let reference = match UpdateDecoder::ref_hash(payload) {
            Ok(Some(h)) => {
                let hist = self.sent_models.get(&from);
                match hist.and_then(|hist| hist.iter().rev().find(|(hh, _)| *hh == h)) {
                    Some((_, p)) => Ok(Some(p.as_slice())),
                    None => {
                        // The referenced model fell out of the history
                        // (client re-homed, or badly stale).
                        env.add_counter("codec.ref_miss", 1);
                        return None;
                    }
                }
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        };
        let mut dense = std::mem::take(&mut self.decode_buf);
        let base = base.map(ParamVec::as_slice);
        let decoded =
            reference.and_then(|r| self.decoder.decode_minus(payload, r, base, &mut dense));
        if let Ok(finite) = decoded {
            env.add_counter("codec.decoded", 1);
            Some((ParamVec::from_vec(dense), finite))
        } else {
            env.add_counter("codec.decode_error", 1);
            self.decode_buf = dense;
            None
        }
    }

    /// Takes back the storage of an integrated update — one
    /// [`UpdateIngest::decode`] produced, or any other spare vector — for
    /// the next upload to decode into. Without a codec nothing ever
    /// decodes, and the storage is simply freed.
    pub fn recycle_update(&mut self, update: ParamVec) {
        if self.codec.is_some() {
            self.decode_buf = update.into_vec();
        }
    }

    /// One encoded client upload: decoded **before** the validation gate
    /// and robust aggregation see it (DESIGN.md §16), for the caller to
    /// feed to [`UpdateIngest::client_update`]. With `delta` it is decoded
    /// straight into its difference from `params`, for a caller that
    /// integrates it into `params` unchanged: the trained model is never
    /// built (§16.3). `None` means it was handled here: counted and dropped
    /// at a server without a codec (hostile or misconfigured, DESIGN.md
    /// §13), otherwise undecodable and answered with the current model so
    /// the client's round loop keeps turning.
    pub fn encoded_update(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        from: NodeId,
        payload: &[u8],
        params: &ParamVec,
        age: f64,
        delta: bool,
    ) -> Option<(ParamVec, bool)> {
        if self.codec.is_none() {
            env.add_counter("net.unexpected", 1);
            return None;
        }
        let decoded = self.decode(env, from, payload, delta.then_some(params));
        if decoded.is_none() {
            self.reply(env, from, params, age);
        }
        decoded
    }

    /// Sends the current model to `to` at the learning rate on record for
    /// it (the initial rate for a node this server does not serve).
    pub fn reply(&mut self, env: &mut dyn Env<FlMsg>, to: NodeId, params: &ParamVec, age: f64) {
        let lr = self
            .lookup(to)
            .map_or(self.decay.eta_init, |k| self.client_lr[k]);
        self.send_model(env, to, lr, params, age);
    }

    /// A `ClientHello` on a fixed client set: a client this server serves
    /// (back from a restart or an availability gap) is handed the current
    /// model; any other sender is a counted drop.
    pub fn hello(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, params: &ParamVec, age: f64) {
        match self.lookup(from) {
            Some(k) => self.send_model(env, from, self.client_lr[k], params, age),
            None => env.add_counter("net.unexpected", 1),
        }
    }

    /// Sends the current model to every client (start-up, or a restart
    /// that lost whatever was in flight).
    pub fn broadcast(&mut self, env: &mut dyn Env<FlMsg>, params: &ParamVec, age: f64) {
        for k in 0..self.clients.len() {
            self.send_model(env, self.clients[k], self.client_lr[k], params, age);
        }
    }

    /// The one `ModelToClient` builder. Records the model in `to`'s
    /// delta-reference history first (no-op unless the codec uses delta
    /// encoding): a reference the server forgot to record can never be
    /// resolved.
    fn send_model(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        to: NodeId,
        lr: f32,
        params: &ParamVec,
        age: f64,
    ) {
        if self.codec.is_some_and(|c| c.delta) {
            let h = params.content_hash();
            let hist = self.sent_models.entry(to).or_default();
            if let Some(pos) = hist.iter().position(|(hh, _)| *hh == h) {
                // Same model re-sent (e.g. a watchdog re-poke of an
                // unchanged model): refresh its recency, don't duplicate.
                let entry = hist.remove(pos).expect("position came from iter");
                hist.push_back(entry);
            } else {
                hist.push_back((h, params.clone()));
                if hist.len() > REF_HISTORY_DEPTH {
                    hist.pop_front();
                }
            }
        }
        env.send(
            to,
            FlMsg::ModelToClient {
                params: params.clone(),
                age,
                lr,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::MockEnv;
    use crate::update_codec::UpdateEncoder;

    const CLIENT: NodeId = 1;

    fn pv(v: &[f32]) -> ParamVec {
        ParamVec::from_vec(v.to_vec())
    }

    /// An ingest path for clients 1..=3 under `cfg`.
    fn ingest(cfg: &SpykerConfig) -> UpdateIngest {
        UpdateIngest::from_config(vec![1, 2, 3], cfg)
    }

    /// A delta-encoded upload of `update` naming `reference` as its base.
    fn delta_payload(codec: CodecConfig, update: &ParamVec, reference: &ParamVec) -> Vec<u8> {
        let mut payload = Vec::new();
        UpdateEncoder::new(codec).encode(
            CLIENT as u64,
            update.as_slice(),
            reference.as_slice(),
            reference.content_hash(),
            &mut payload,
        );
        payload
    }

    fn delta_cfg() -> (SpykerConfig, CodecConfig) {
        let codec = CodecConfig::parse("delta").expect("valid spec");
        (SpykerConfig::paper_defaults(3, 1).with_codec(codec), codec)
    }

    #[test]
    fn delta_upload_resolves_against_a_recorded_reply() {
        let (cfg, codec) = delta_cfg();
        let mut ingest = ingest(&cfg);
        let mut env = MockEnv::new(0, 4);
        let model = pv(&[1.0, 2.0]);
        ingest.reply(&mut env, CLIENT, &model, 0.0);
        let payload = delta_payload(codec, &pv(&[1.5, 2.5]), &model);
        let decoded = ingest.encoded_update(&mut env, CLIENT, &payload, &model, 0.0, false);
        assert_eq!(decoded, Some((pv(&[1.5, 2.5]), true)));
        assert_eq!(env.counter("codec.decoded"), 1);
        assert_eq!(env.sent.len(), 1, "a decodable upload is not answered here");
    }

    #[test]
    fn reference_miss_is_counted_and_answered_with_the_current_model() {
        let (cfg, codec) = delta_cfg();
        let mut ingest = ingest(&cfg);
        let mut env = MockEnv::new(0, 4);
        // The client trained from a model this server never sent it.
        let payload = delta_payload(codec, &pv(&[1.5, 2.5]), &pv(&[9.0, 9.0]));
        let current = pv(&[1.0, 2.0]);
        let decoded = ingest.encoded_update(&mut env, CLIENT, &payload, &current, 7.0, false);
        assert_eq!(decoded, None);
        assert_eq!(env.counter("codec.ref_miss"), 1);
        assert_eq!(env.counter("codec.decoded"), 0);
        match &env.sent[..] {
            [(CLIENT, FlMsg::ModelToClient { params, age, lr })] => {
                assert_eq!((params, *age, *lr), (&current, 7.0, cfg.decay.eta_init));
            }
            other => panic!("expected one resend, got {other:?}"),
        }
        // The resend was itself recorded: the retry now resolves.
        let retry = delta_payload(codec, &pv(&[1.5, 2.5]), &current);
        assert!(ingest.decode(&mut env, CLIENT, &retry, None).is_some());
    }

    #[test]
    fn malformed_payload_is_a_counted_decode_error() {
        let (cfg, _) = delta_cfg();
        let mut ingest = ingest(&cfg);
        let mut env = MockEnv::new(0, 4);
        let model = pv(&[0.0, 0.0]);
        let decoded = ingest.encoded_update(&mut env, CLIENT, &[0xff; 7], &model, 0.0, true);
        assert_eq!(decoded, None);
        assert_eq!(env.counter("codec.decode_error"), 1);
        assert_eq!(
            env.sent.len(),
            1,
            "the sender's round loop must keep turning"
        );
    }

    #[test]
    fn encoded_upload_without_a_codec_is_dropped_unanswered() {
        let mut ingest = ingest(&SpykerConfig::paper_defaults(3, 1));
        let mut env = MockEnv::new(0, 4);
        let model = pv(&[0.0]);
        assert_eq!(
            ingest.encoded_update(&mut env, CLIENT, &[1, 2, 3], &model, 0.0, true),
            None
        );
        assert_eq!(env.counter("net.unexpected"), 1);
        assert!(env.sent.is_empty());
    }

    /// Clients 1..=3, weight 0.5 for every update (inverse-linear at
    /// staleness 1), mixing rate 0.5, no decay.
    fn half_weight_ingest(aggregation: AggregationStrategy) -> UpdateIngest {
        UpdateIngest::new(
            vec![1, 2, 3],
            DecayConfig::paper_defaults().disabled(),
            ClientStaleness::InverseLinear,
            0.5,
            ValidationConfig::default(),
            aggregation,
        )
    }

    #[test]
    fn robust_batch_flushes_once_at_the_compounded_step() {
        let mut ingest = half_weight_ingest(AggregationStrategy::Median { batch: 3 });
        let mut env = MockEnv::new(0, 4);
        let (mut params, mut age) = (pv(&[0.0]), 1.0);
        for (k, v) in [1.0f32, 2.0, 30.0].into_iter().enumerate() {
            assert_eq!(params, pv(&[0.0]), "stepped before the batch filled");
            // Each upload was trained from the model one age unit back.
            let trained_from = age - 1.0;
            let update = pv(&[v]);
            assert!(ingest.client_update(
                &mut env,
                &mut params,
                &mut age,
                k,
                Upload::Model(&update, None),
                trained_from,
                true
            ));
        }
        assert_eq!(env.counter("agg.robust.flushes"), 1);
        // Median delta 2.0, applied at 1 − (1 − 0.5·0.5)³.
        let want = compounded_step(0.25, 3) * 2.0;
        assert_eq!(params.as_slice(), [want]);
        // Every buffered update aged the model and was counted and answered.
        assert_eq!((age, ingest.processed(), env.sent.len()), (4.0, 3, 3));
    }

    #[test]
    fn silent_update_integrates_without_replying() {
        let mut ingest = half_weight_ingest(AggregationStrategy::Mean);
        let mut env = MockEnv::new(0, 4);
        let (mut params, mut age) = (pv(&[0.0]), 1.0);
        let update = pv(&[1.0]);
        assert!(ingest.client_update(
            &mut env,
            &mut params,
            &mut age,
            0,
            Upload::Model(&update, None),
            0.0,
            false
        ));
        assert_eq!((&params, age), (&pv(&[0.25]), 2.0));
        assert_eq!(env.counter("updates.processed"), 1);
        assert!(
            env.sent.is_empty(),
            "a redirected update must not be answered"
        );
        // …and neither is a *rejected* silent one.
        let poisoned = pv(&[f32::NAN]);
        assert!(!ingest.client_update(
            &mut env,
            &mut params,
            &mut age,
            0,
            Upload::Model(&poisoned, None),
            0.0,
            false
        ));
        assert_eq!((ingest.rejected(), env.sent.len()), (1, 0));
        assert_eq!((&params, age), (&pv(&[0.25]), 2.0));
    }
}
