//! Spyker protocol configuration (paper Tab. 2 and Tab. 3).

use spyker_simnet::SimTime;

use crate::agg::{AggregationStrategy, ValidationConfig};
use crate::decay::DecayConfig;
use crate::membership::MembershipConfig;
use crate::staleness::ClientStaleness;
use crate::update_codec::CodecConfig;

/// Fault-recovery tunables for the self-healing token protocol.
///
/// The paper's Alg. 2 assumes reliable FIFO links and ever-alive servers:
/// lose the token once and no cluster ever synchronises again. With
/// recovery enabled each server runs three watchdogs:
///
/// * **Token watchdog** — fires every `token_timeout * (server_idx + 1)`;
///   if no synchronisation id (`bid`) has advanced since the last check,
///   the token is presumed lost and the server regenerates it with a bid
///   high enough to dominate any stale copy (`on_token` drops tokens whose
///   bid is below the highest seen, so regeneration is idempotent). The
///   stagger makes the lowest-indexed live server regenerate first.
/// * **Exchange timeout** — a token holder that triggered an exchange
///   normally waits for *every* server's model before forwarding the
///   token; if a peer crashed that would block forever. After
///   `exchange_timeout` the holder forwards the token with whatever subset
///   answered (counted in `sync.degraded`).
/// * **Client watchdog** — fires every `client_timeout`; any client that
///   has not delivered an update since the last check is re-sent the
///   current model, recovering from lost `ModelToClient`/`ClientUpdate`
///   messages and reviving clients that rejoined after churn.
///
/// Age gossip needs no watchdog: it is re-sent on later update triggers by
/// construction (rate-limited by `SpykerConfig::gossip_backoff`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Base period of the token-loss watchdog; server `i` checks every
    /// `token_timeout * (i + 1)` so lower-indexed servers win regeneration
    /// races.
    pub token_timeout: SimTime,
    /// How long a token holder waits for peer models before forwarding the
    /// token with a partial exchange.
    pub exchange_timeout: SimTime,
    /// Period of the per-client liveness check.
    pub client_timeout: SimTime,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            token_timeout: SimTime::from_secs(3),
            exchange_timeout: SimTime::from_secs(2),
            client_timeout: SimTime::from_secs(2),
        }
    }
}

/// All tunables of the Spyker protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct SpykerConfig {
    /// Server-side rate `η_i` applied when integrating a client update
    /// (the paper's "global learning rate of 0.6 for the client-server
    /// update", §5.1).
    pub server_lr: f32,
    /// Staleness policy for client updates (Alg. 1 l. 14; see
    /// [`ClientStaleness`] for the literal-vs-damping discussion).
    pub staleness: ClientStaleness,
    /// Client learning-rate decay (Alg. 1 l. 18).
    pub decay: DecayConfig,
    /// Sigmoid activation rate `φ` for server-model aggregation (Tab. 2:
    /// 1.5).
    pub phi: f32,
    /// Server-model aggregation rate `η_a` (Tab. 2: 0.6).
    pub eta_a: f32,
    /// Inter-server age-drift threshold `h_inter` (Tab. 2: `n_C / 5n`).
    pub h_inter: f64,
    /// Intra-server age-drift threshold `h_intra` (Tab. 2: 350).
    pub h_intra: f64,
    /// CPU cost of one model aggregation on a Spyker server (Tab. 3: 2 ms).
    pub agg_cost: SimTime,
    /// Number of local epochs `T_k` a client trains per round.
    pub client_epochs: usize,
    /// Minimum number of locally processed client updates between two age
    /// gossip broadcasts by a non-token-holder (rate limit on Alg. 2
    /// l. 29; the paper broadcasts "whenever necessary" without specifying
    /// a rate).
    pub gossip_backoff: u64,
    /// Scale each client update's aggregation weight by the learning rate
    /// it was trained with (relative to `η_init`). Not in the paper's
    /// pseudocode, but without it a client whose rate has decayed to
    /// `η_min` keeps sending back *near-echoes of a stale model*, and
    /// Alg. 1 l. 15 then actively drags the server model backwards. This
    /// repair is what lets the decay *help* under heterogeneity (Fig. 11);
    /// disable to observe the anchor effect.
    pub decay_weighted_aggregation: bool,
    /// Grow the model age by each update's *effective weight* instead of
    /// the paper's unconditional `A_i += 1` (Alg. 1 l. 16). With the
    /// literal rule, updates integrated at near-zero weight still inflate
    /// the age, which makes every other client's update look ancient and
    /// collapses their staleness weights; fractional aging keeps `A_i`
    /// equal to the number of updates the model actually embodies. A fresh
    /// full-weight update still adds ~1, so ages remain comparable to the
    /// paper's.
    pub fractional_age: bool,
    /// Fault recovery (token regeneration, degraded exchanges, client
    /// liveness probes). `None` — the default — reproduces the paper's
    /// fault-free protocol exactly: no watchdog timers are armed and no
    /// extra messages are ever sent, so runs are byte-identical to the
    /// pre-recovery implementation.
    pub recovery: Option<RecoveryConfig>,
    /// How client updates are combined into the server model. The default,
    /// [`AggregationStrategy::Mean`], is the paper-exact per-update
    /// age-weighted lerp; the robust variants (trimmed mean, median, norm
    /// clipping) bound the influence of Byzantine clients at the cost of
    /// batched, less frequent steps. See [`crate::agg`].
    pub aggregation: AggregationStrategy,
    /// The server-side update validation gate (non-finite / norm-exploded /
    /// over-stale rejection). The default only rejects non-finite updates —
    /// a check that cannot fire on an honest run, so default behaviour
    /// stays byte-identical to the paper-exact implementation.
    pub validation: ValidationConfig,
    /// Elastic ring membership (server join/leave, client re-homing,
    /// crash eviction). `None` — the default — pins the ring at its
    /// startup shape and keeps runs byte-identical to the fixed-ring
    /// implementation. See [`crate::membership`] and DESIGN.md §14.
    pub membership: Option<MembershipConfig>,
    /// Update compression between client and server (delta encoding,
    /// top-k sparsification, int8/int4 quantization). `None` — the
    /// default — sends dense [`crate::msg::FlMsg::ClientUpdate`]s and
    /// keeps runs byte-identical to the pre-codec implementation. See
    /// [`crate::update_codec`] and DESIGN.md §16.
    pub codec: Option<CodecConfig>,
}

impl SpykerConfig {
    /// The paper's Tab. 2 / Tab. 3 values for a deployment of `n_clients`
    /// clients and `n_servers` servers.
    ///
    /// # Panics
    ///
    /// Panics if `n_servers == 0`.
    pub fn paper_defaults(n_clients: usize, n_servers: usize) -> Self {
        assert!(n_servers > 0, "need at least one server");
        Self {
            server_lr: 0.6,
            staleness: ClientStaleness::Polynomial { alpha: 0.5 },
            decay: DecayConfig::paper_defaults(),
            phi: 1.5,
            eta_a: 0.6,
            h_inter: n_clients as f64 / (5.0 * n_servers as f64),
            h_intra: 350.0,
            agg_cost: SimTime::from_millis(2),
            client_epochs: 1,
            gossip_backoff: 5,
            decay_weighted_aggregation: true,
            fractional_age: true,
            recovery: None,
            aggregation: AggregationStrategy::Mean,
            validation: ValidationConfig::default(),
            membership: None,
            codec: None,
        }
    }

    /// Enables fault recovery with the given watchdog timeouts (builder
    /// style). See [`RecoveryConfig`].
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Sets the client learning-rate schedule (builder style).
    pub fn with_decay(mut self, decay: DecayConfig) -> Self {
        self.decay = decay;
        self
    }

    /// Sets the staleness policy (builder style).
    pub fn with_staleness(mut self, staleness: ClientStaleness) -> Self {
        self.staleness = staleness;
        self
    }

    /// Sets the per-round client epochs (builder style).
    pub fn with_client_epochs(mut self, epochs: usize) -> Self {
        assert!(epochs > 0, "epochs must be positive");
        self.client_epochs = epochs;
        self
    }

    /// Sets both age-drift thresholds (builder style).
    pub fn with_thresholds(mut self, h_inter: f64, h_intra: f64) -> Self {
        self.h_inter = h_inter;
        self.h_intra = h_intra;
        self
    }

    /// Sets the sigmoid activation rate `φ` (builder style).
    pub fn with_phi(mut self, phi: f32) -> Self {
        self.phi = phi;
        self
    }

    /// Sets the server aggregation rate `η_a` (builder style).
    pub fn with_eta_a(mut self, eta_a: f32) -> Self {
        self.eta_a = eta_a;
        self
    }

    /// Sets the aggregation strategy (builder style). See [`crate::agg`].
    pub fn with_aggregation(mut self, aggregation: AggregationStrategy) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Sets the update validation gate (builder style). See [`crate::agg`].
    pub fn with_validation(mut self, validation: ValidationConfig) -> Self {
        self.validation = validation;
        self
    }

    /// Enables elastic ring membership (builder style). See
    /// [`crate::membership`].
    pub fn with_membership(mut self, membership: MembershipConfig) -> Self {
        self.membership = Some(membership);
        self
    }

    /// Enables client-update compression (builder style). See
    /// [`crate::update_codec`].
    pub fn with_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = Some(codec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_2() {
        let cfg = SpykerConfig::paper_defaults(100, 4);
        assert_eq!(cfg.staleness, ClientStaleness::Polynomial { alpha: 0.5 });
        assert_eq!(cfg.phi, 1.5);
        assert_eq!(cfg.eta_a, 0.6);
        assert_eq!(cfg.server_lr, 0.6);
        assert_eq!(cfg.h_inter, 5.0); // 100 / (5*4)
        assert_eq!(cfg.h_intra, 350.0);
        assert_eq!(cfg.agg_cost, SimTime::from_millis(2));
        assert_eq!(cfg.decay.eta_init, 0.5);
        assert_eq!(cfg.decay.beta, 0.05);
        // The robustness extension must stay off by default: paper-exact
        // per-update mean, gate armed only against non-finite payloads.
        assert_eq!(cfg.aggregation, AggregationStrategy::Mean);
        assert_eq!(cfg.validation, ValidationConfig::default());
        assert!(cfg.validation.max_delta_norm.is_none());
        assert!(cfg.validation.max_staleness.is_none());
    }

    #[test]
    fn h_inter_scales_with_deployment() {
        assert_eq!(SpykerConfig::paper_defaults(200, 4).h_inter, 10.0);
        assert_eq!(SpykerConfig::paper_defaults(100, 5).h_inter, 4.0);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = SpykerConfig::paper_defaults(100, 4)
            .with_phi(2.0)
            .with_eta_a(0.3)
            .with_thresholds(1.0, 10.0)
            .with_client_epochs(3);
        assert_eq!(cfg.phi, 2.0);
        assert_eq!(cfg.eta_a, 0.3);
        assert_eq!(cfg.h_inter, 1.0);
        assert_eq!(cfg.h_intra, 10.0);
        assert_eq!(cfg.client_epochs, 3);
    }
}
