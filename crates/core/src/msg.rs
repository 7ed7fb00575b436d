//! The message vocabulary of all FL algorithms in this workspace.
//!
//! One shared enum keeps the client actor reusable across Spyker and the
//! baselines and gives the bandwidth accounting a uniform view
//! ([`spyker_simnet::WireSize::kind`] labels client–server vs server–server
//! traffic, the split paper Fig. 12 reports).

use spyker_simnet::{ByzantineAttack, NodeId, WireSize};

use crate::membership::RingView;
use crate::params::ParamVec;
use crate::token::Token;

/// A protocol message.
#[derive(Debug, Clone)]
pub enum FlMsg {
    /// Server → client: a (global) model to train on (Alg. 1 trigger).
    ModelToClient {
        /// Model parameters.
        params: ParamVec,
        /// Age `A_i` of the model when sent (echoed back by the client).
        age: f64,
        /// Learning rate `η_k` the client must use (decayed by the server).
        lr: f32,
    },
    /// Client → server: a locally trained model (Alg. 1 l. 10).
    ClientUpdate {
        /// The trained parameters.
        params: ParamVec,
        /// Age of the model this update was computed from.
        age: f64,
        /// Number of local data points `d_k`.
        num_samples: usize,
    },
    /// Client → server: a locally trained model compressed by the update
    /// codec (`crate::update_codec`). Carries the same metadata as
    /// [`FlMsg::ClientUpdate`]; the parameters travel as an opaque encoded
    /// payload whose length *is* the message's wire size, so `net.bytes`
    /// reflects the compression directly.
    EncodedUpdate {
        /// The codec-encoded parameter payload.
        payload: Vec<u8>,
        /// Age of the model this update was computed from.
        age: f64,
        /// Number of local data points `d_k`.
        num_samples: usize,
    },
    /// Server → server: a model broadcast during a synchronisation
    /// (Alg. 2 l. 25/35), tagged with the synchronisation id.
    ServerModel {
        /// The sender's model.
        params: ParamVec,
        /// The sender's model age `A_i`.
        age: f64,
        /// Synchronisation id this broadcast belongs to.
        bid: u64,
        /// Sender's server index (dense, `0..n`).
        server_idx: usize,
    },
    /// Server → server: age advertisement so the token holder can trigger a
    /// synchronisation (Alg. 2 l. 29 / `RcvAge`).
    AgeGossip {
        /// The advertised model age.
        age: f64,
        /// Sender's server index.
        server_idx: usize,
    },
    /// Server → server: the ring token (Alg. 2 l. 41).
    TokenPass(Token),
    /// Server → client: all `K` centers of a clustered server (the client
    /// evaluates each on local data and trains the best — IFCA style).
    CentersToClient {
        /// The centers.
        centers: Vec<ParamVec>,
        /// Per-center ages (echoed back for the chosen center).
        ages: Vec<f64>,
        /// Learning rate the client must use.
        lr: f32,
    },
    /// Client → server: a trained update for one chosen center.
    ClusterUpdate {
        /// The trained parameters.
        params: ParamVec,
        /// Age the chosen center had when offered.
        age: f64,
        /// Which center the client chose.
        center: usize,
        /// Number of local data points.
        num_samples: usize,
    },
    /// Server → server: one model center of a clustered (multi-center)
    /// server — the clustering extension of `crate::cluster`.
    ClusterModel {
        /// The center's parameters.
        params: ParamVec,
        /// The center's age.
        age: f64,
        /// Center index at the sender.
        center: usize,
        /// Sender's server index.
        server_idx: usize,
    },
    /// Cloud → edge or edge → cloud model transfer in hierarchical FL
    /// (HierFAVG); `round` is the cloud aggregation round.
    HierModel {
        /// The transferred model.
        params: ParamVec,
        /// Cloud round number.
        round: u64,
        /// Total data points represented by this model (edge → cloud
        /// weighting).
        weight: f64,
    },
    /// Standby server → live server (membership): splice me into the ring.
    JoinRequest {
        /// `Region::ALL` index of the joiner (for nearest-server
        /// re-homing decisions later).
        region: usize,
    },
    /// Sponsor → joiner (membership): bootstrap transfer. Carries the
    /// sponsor's model, age knowledge, the spliced ring and the dominating
    /// bid floor the new shape takes over under.
    JoinAccept {
        /// The ring with the joiner spliced in.
        ring: RingView,
        /// The sponsor's current model (the joiner starts from it).
        params: ParamVec,
        /// The sponsor's model age.
        age: f64,
        /// The sponsor's per-slot age knowledge.
        ages: Vec<f64>,
        /// Minimum bid any token must carry under the new ring shape.
        bid_floor: u64,
    },
    /// Server → server (membership): a new ring epoch to adopt.
    RingUpdate {
        /// The new ring view.
        ring: RingView,
        /// Minimum bid any token must carry under the new ring shape.
        bid_floor: u64,
    },
    /// Server → client (membership): report to `server` from now on — sent
    /// by a draining server to each of its clients.
    Rehome {
        /// Node id of the adopting server.
        server: NodeId,
    },
    /// Client → server (membership): adopt me. Sent by a client after a
    /// re-home or a liveness failover; the server registers the client and
    /// replies with the current model.
    ClientHello,
    /// Draining server → adopting server (membership): an in-flight client
    /// update redirected so it is not lost during the handoff.
    RedirectedUpdate {
        /// Node id of the originating client.
        client: NodeId,
        /// The trained parameters.
        params: ParamVec,
        /// Age of the model the update was computed from.
        age: f64,
        /// Number of local data points.
        num_samples: usize,
    },
    /// Autoscaler → standby server (membership): activate by joining via
    /// `sponsor`.
    ScaleUp {
        /// Live server to send the join request to.
        sponsor: NodeId,
    },
    /// Autoscaler → live server (membership): drain and leave the ring.
    ScaleDown,
}

impl FlMsg {
    /// `true` for the small protocol-control messages (token, gossip,
    /// membership signalling) that transports must not shed under
    /// backpressure — losing one can wedge the ring, while a bulk model
    /// transfer is re-sent by the protocol anyway.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            FlMsg::AgeGossip { .. }
                | FlMsg::TokenPass(_)
                | FlMsg::JoinRequest { .. }
                | FlMsg::RingUpdate { .. }
                | FlMsg::Rehome { .. }
                | FlMsg::ClientHello
                | FlMsg::ScaleUp { .. }
                | FlMsg::ScaleDown
        )
    }
}

/// The [`WireSize::kind`] of client–server traffic, both uploads included.
pub(crate) const CLIENT_SERVER: &str = "client-server";

/// Wire size of a [`FlMsg::ClientUpdate`] carrying `params`.
pub(crate) fn client_update_size(params: &ParamVec) -> usize {
    params.wire_size() + 16
}

/// Wire size of a [`FlMsg::EncodedUpdate`] carrying `payload_len` bytes.
pub(crate) fn encoded_update_size(payload_len: usize) -> usize {
    payload_len + 20
}

/// Serialized size of a [`RingView`] (epoch + slots + member count +
/// per-member slot/node/region — mirrors the codec's `put_ring` layout).
fn ring_wire_size(ring: &RingView) -> usize {
    20 + 9 * ring.members.len()
}

impl WireSize for FlMsg {
    fn wire_size(&self) -> usize {
        match self {
            FlMsg::ModelToClient { params, .. } => params.wire_size() + 12,
            FlMsg::ClientUpdate { params, .. } => client_update_size(params),
            FlMsg::EncodedUpdate { payload, .. } => encoded_update_size(payload.len()),
            FlMsg::ServerModel { params, .. } => params.wire_size() + 24,
            FlMsg::ClusterModel { params, .. } => params.wire_size() + 24,
            FlMsg::CentersToClient { centers, .. } => {
                centers.iter().map(ParamVec::wire_size).sum::<usize>() + 8 * centers.len() + 12
            }
            FlMsg::ClusterUpdate { params, .. } => params.wire_size() + 24,
            FlMsg::AgeGossip { .. } => 16,
            FlMsg::TokenPass(token) => token.wire_size(),
            FlMsg::HierModel { params, .. } => params.wire_size() + 16,
            FlMsg::JoinRequest { .. } => 8,
            FlMsg::JoinAccept {
                ring, params, ages, ..
            } => ring_wire_size(ring) + params.wire_size() + 8 * ages.len() + 16,
            FlMsg::RingUpdate { ring, .. } => ring_wire_size(ring) + 8,
            FlMsg::Rehome { .. } => 8,
            FlMsg::ClientHello => 4,
            FlMsg::RedirectedUpdate { params, .. } => params.wire_size() + 24,
            FlMsg::ScaleUp { .. } => 8,
            FlMsg::ScaleDown => 4,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            FlMsg::ModelToClient { .. }
            | FlMsg::ClientUpdate { .. }
            | FlMsg::EncodedUpdate { .. }
            | FlMsg::CentersToClient { .. }
            | FlMsg::ClusterUpdate { .. }
            | FlMsg::Rehome { .. }
            | FlMsg::ClientHello => CLIENT_SERVER,
            FlMsg::ServerModel { .. }
            | FlMsg::ClusterModel { .. }
            | FlMsg::AgeGossip { .. }
            | FlMsg::TokenPass(_) => "server-server",
            FlMsg::HierModel { .. } => "server-server",
            FlMsg::JoinRequest { .. }
            | FlMsg::JoinAccept { .. }
            | FlMsg::RingUpdate { .. }
            | FlMsg::RedirectedUpdate { .. }
            | FlMsg::ScaleUp { .. }
            | FlMsg::ScaleDown => "server-server",
        }
    }

    /// A Byzantine *client* controls only the model updates it uploads:
    /// corruption applies to [`FlMsg::ClientUpdate`] and
    /// [`FlMsg::ClusterUpdate`] payloads and leaves server-originated
    /// traffic (models, gossip, the token) untouched even if a server node
    /// is marked adversarial in the plan.
    fn corrupt(&mut self, attack: &ByzantineAttack, draw: &mut dyn FnMut() -> f64) -> bool {
        let params = match self {
            FlMsg::ClientUpdate { params, .. } | FlMsg::ClusterUpdate { params, .. } => params,
            // Codec-compressed uploads are attacked through their encoded
            // payload (the decoded values transform the same way).
            FlMsg::EncodedUpdate { payload, .. } => {
                return crate::update_codec::corrupt_payload(payload, attack, draw);
            }
            _ => return false,
        };
        let mut hit = false;
        for v in params.as_mut_slice() {
            if let Some(new) = attack_value(*v, attack, draw) {
                *v = new;
                hit = true;
            }
        }
        hit
    }
}

/// What a Byzantine `attack` makes of one uploaded value `v` — the single
/// statement of each attack, for dense uploads and encoded payloads alike.
/// `None` means a NaN injection's draw missed and `v` stays. Noise and NaN
/// injection take their draws from `draw`, value by value in upload order.
pub(crate) fn attack_value(
    v: f32,
    attack: &ByzantineAttack,
    draw: &mut dyn FnMut() -> f64,
) -> Option<f32> {
    match attack {
        ByzantineAttack::SignFlip => Some(-v),
        ByzantineAttack::Scale { factor } => Some(v * factor),
        ByzantineAttack::GaussianNoise { sigma } => Some(v + sigma * standard_normal(draw)),
        ByzantineAttack::NanInject { prob } => (draw() < *prob).then_some(f32::NAN),
    }
}

/// One standard-normal sample via Box–Muller from two uniform draws.
fn standard_normal(draw: &mut dyn FnMut() -> f64) -> f32 {
    let u1 = draw().max(1e-12);
    let u2 = draw();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_messages_dominate_wire_size() {
        let m = FlMsg::ModelToClient {
            params: ParamVec::zeros(1000),
            age: 0.0,
            lr: 0.5,
        };
        assert!(m.wire_size() > 4000);
        assert_eq!(m.kind(), "client-server");
    }

    #[test]
    fn control_messages_are_small() {
        assert!(
            FlMsg::AgeGossip {
                age: 1.0,
                server_idx: 0
            }
            .wire_size()
                < 100
        );
        assert!(FlMsg::TokenPass(Token::initial(4)).wire_size() < 100);
    }

    #[test]
    fn kinds_separate_traffic_classes() {
        let server = FlMsg::ServerModel {
            params: ParamVec::zeros(4),
            age: 0.0,
            bid: 1,
            server_idx: 0,
        };
        assert_eq!(server.kind(), "server-server");
        let client = FlMsg::ClientUpdate {
            params: ParamVec::zeros(4),
            age: 0.0,
            num_samples: 10,
        };
        assert_eq!(client.kind(), "client-server");
    }

    #[test]
    fn membership_messages_classify_and_size() {
        use crate::membership::RingView;
        let ring = RingView::fixed(&[0, 1, 2]);
        let accept = FlMsg::JoinAccept {
            ring: ring.clone(),
            params: ParamVec::zeros(100),
            age: 1.0,
            ages: vec![0.0; 3],
            bid_floor: 7,
        };
        assert_eq!(accept.kind(), "server-server");
        assert!(accept.wire_size() > 400, "bootstrap carries the model");
        assert!(!accept.is_control(), "model transfer is bulk traffic");
        let update = FlMsg::RingUpdate { ring, bid_floor: 7 };
        assert!(update.is_control());
        assert!(update.wire_size() < 100);
        assert_eq!(FlMsg::Rehome { server: 3 }.kind(), "client-server");
        assert_eq!(FlMsg::ClientHello.kind(), "client-server");
        assert!(FlMsg::ScaleDown.is_control());
        assert!(FlMsg::TokenPass(Token::initial(2)).is_control());
        assert!(!FlMsg::ModelToClient {
            params: ParamVec::zeros(1),
            age: 0.0,
            lr: 0.1
        }
        .is_control());
    }

    #[test]
    fn corruption_targets_client_updates_only() {
        let mut draw = || 0.0;
        let mut update = FlMsg::ClientUpdate {
            params: ParamVec::from_vec(vec![1.0, -2.0]),
            age: 3.0,
            num_samples: 10,
        };
        assert!(update.corrupt(&ByzantineAttack::SignFlip, &mut draw));
        match &update {
            FlMsg::ClientUpdate { params, age, .. } => {
                assert_eq!(params.as_slice(), &[-1.0, 2.0]);
                // Metadata is not the attack surface; only params flip.
                assert_eq!(*age, 3.0);
            }
            _ => unreachable!(),
        }
        // Server-originated traffic resists corruption entirely.
        let mut server = FlMsg::ServerModel {
            params: ParamVec::from_vec(vec![1.0]),
            age: 0.0,
            bid: 1,
            server_idx: 0,
        };
        assert!(!server.corrupt(&ByzantineAttack::SignFlip, &mut draw));
        match &server {
            FlMsg::ServerModel { params, .. } => assert_eq!(params.as_slice(), &[1.0]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn sharing_model_storage_did_not_grow_the_message() {
        // Every queue slot, timer-wheel entry and channel cell holds an
        // `FlMsg` by value: the copy-on-write handle must cost what the
        // plain `Vec` did.
        assert_eq!(std::mem::size_of::<ParamVec>(), 24);
        assert_eq!(std::mem::size_of::<FlMsg>(), 104);
    }

    #[test]
    fn scale_noise_and_nan_attacks_transform_the_payload() {
        let base = || FlMsg::ClientUpdate {
            params: ParamVec::from_vec(vec![1.0, 2.0, 3.0, 4.0]),
            age: 0.0,
            num_samples: 1,
        };

        let mut m = base();
        assert!(m.corrupt(&ByzantineAttack::Scale { factor: 10.0 }, &mut || 0.5));
        if let FlMsg::ClientUpdate { params, .. } = &m {
            assert_eq!(params.as_slice(), &[10.0, 20.0, 30.0, 40.0]);
        }

        let mut m = base();
        assert!(m.corrupt(&ByzantineAttack::GaussianNoise { sigma: 1.0 }, &mut || 0.3));
        if let FlMsg::ClientUpdate { params, .. } = &m {
            assert!(params.is_finite());
            assert_ne!(params.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        }

        // draw() == 0.3 < prob hits every coordinate.
        let mut m = base();
        assert!(m.corrupt(&ByzantineAttack::NanInject { prob: 0.5 }, &mut || 0.3));
        if let FlMsg::ClientUpdate { params, .. } = &m {
            assert!(params.as_slice().iter().all(|v| v.is_nan()));
        }

        // draw() == 0.9 >= prob never hits: reported as not altered.
        let mut m = base();
        assert!(!m.corrupt(&ByzantineAttack::NanInject { prob: 0.5 }, &mut || 0.9));
        if let FlMsg::ClientUpdate { params, .. } = &m {
            assert!(params.is_finite());
        }
    }
}
