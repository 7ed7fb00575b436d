//! Protocol invariant oracles.
//!
//! An [`Oracle`] watches one invariant of the Spyker protocol. The harness
//! calls [`Oracle::check`] after *every* simulation event with a read-only
//! [`OracleCtx`] snapshot, and [`Oracle::at_end`] once when the run
//! finishes; the first `Err` stops the run and becomes a
//! [`crate::harness::Violation`].
//!
//! The catalog (see `DESIGN.md` §11 for the derivations):
//!
//! | oracle                | invariant                                            |
//! |-----------------------|------------------------------------------------------|
//! | `virtual-clock`       | event times never go backwards                       |
//! | `token-conservation`  | a token appears only via pass, regeneration, or init |
//! | `token-uniqueness`    | live holders ≤ 1 + tokens regenerated                |
//! | `bid-monotonicity`    | per-server `highest_bid_seen` never decreases        |
//! | `age-monotonicity`    | peer age knowledge only moves forward                |
//! | `age-conservation`    | no age exceeds the updates actually processed        |
//! | `counter-consistency` | metric counters equal the per-actor ledgers          |
//! | `metrics-consistency` | spans stay enter/exit balanced; counters are monotone|
//! | `exchange-ledger`     | the `cnt`/`did_broadcast` ledger stays coherent      |
//! | `membership`          | ring epochs are monotone; phase transitions legal    |
//! | `model-hull`          | honest models stay inside the targets' hull          |
//! | `codec-bytes`         | the codec byte ledger compresses and reconciles      |
//! | `availability`        | offline nodes run no handler; windows pair up        |
//! | `liveness`            | a clean run processes updates and stays finite       |
//!
//! Oracles that only hold conditionally consult the scenario flags in the
//! context (`clean`, `byzantine_free`, `codec`) so faulty runs are not
//! flagged for documented degraded-mode behaviour.
//!
//! The nine oracles that read server state are folds over per-server
//! [`ServerSnapshot`]s, which one adapter (`adapter.rs`) runs on the
//! simulator: the nine share one store of snapshots, which the first of
//! them in suite order takes at each check. The oracles live one family a
//! file: `token.rs` (token and exchange), `ages.rs` (ages and hull),
//! `membership.rs`, `books.rs` (counters, metrics, codec),
//! `availability.rs` and `clock.rs` (clock and liveness).

use std::rc::Rc;

use spyker_core::msg::FlMsg;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{Metrics, Node, NodeId, SimTime, TapKind};

mod adapter;
mod ages;
mod availability;
mod books;
mod clock;
mod counters;
mod membership;
#[cfg(test)]
mod reference;
mod token;

use adapter::PerServer;
pub(crate) use adapter::ServerSnapshot;
use ages::{AgeConservation, AgeMonotonicity, ModelHull};
use availability::AvailabilityOracle;
use books::{CodecByteOracle, CounterConsistency, MetricsConsistencyOracle};
use clock::{LivenessOracle, VirtualClockOracle};
use membership::Membership;
use token::{BidMonotonicity, ExchangeLedger, TokenConservation, TokenUniqueness};

/// What the event the harness just observed was (absent for the final
/// [`Oracle::at_end`] pass, which runs outside any event).
#[derive(Debug, Clone, Copy)]
pub struct EventInfo {
    /// The node whose handler ran (or that discarded the event).
    pub node: NodeId,
    /// Event kind as reported by the simulation tap.
    pub kind: TapKind,
    /// `true` when this event was a `TokenPass` delivered to `node` —
    /// the only message that may legitimately hand a server the token.
    pub token_delivered: bool,
}

/// Read-only snapshot an oracle checks.
///
/// Built fresh after *every* event, so it holds only borrows: at 10⁵–10⁶
/// clients, per-event `Vec` construction (the old downcast list of server
/// references) dominated the harness. [`OracleCtx::server`] downcasts on
/// demand — a `TypeId` compare, no allocation.
pub struct OracleCtx<'a> {
    /// Virtual time of the snapshot.
    pub time: SimTime,
    /// Every node in the simulation, indexed by id.
    pub nodes: &'a [Box<dyn Node<FlMsg>>],
    /// Node ids of every server actor: the base ring (node ids
    /// `0..n_servers`) followed by any standby/joiner servers (which live
    /// *after* the clients in the elastic node layout). Positions and node
    /// ids diverge once standbys exist, so event attribution must go
    /// through this.
    pub server_nodes: &'a [NodeId],
    /// Metric counters and series collected so far.
    pub metrics: &'a Metrics,
    /// Number of clients in the deployment.
    pub n_clients: usize,
    /// The event that produced this snapshot; `None` for the end-of-run
    /// pass.
    pub event: Option<EventInfo>,
    /// `true` when the scenario injects no faults and no violation —
    /// enables the strict clean-run invariants.
    pub clean: bool,
    /// `true` when no client is Byzantine — enables the model-hull
    /// invariant (poisoned updates may leave the hull by design).
    pub byzantine_free: bool,
    /// Per-client scalar targets (the hull the honest models must stay in).
    pub targets: &'a [f32],
    /// `true` when the run stopped on the event budget rather than the
    /// horizon (relaxes end-of-run progress expectations).
    pub budget_exhausted: bool,
    /// The update-compression pipeline the clients encode with, if any.
    /// Enables the codec byte-ledger oracle; a lossy pipeline also
    /// suspends the model-hull invariant (quantization error and carried
    /// error-feedback residuals may legitimately overshoot the hull).
    pub codec: Option<CodecConfig>,
}

/// One protocol invariant, checked online.
///
/// Implementations keep whatever history they need (previous snapshots) as
/// internal state; a fresh instance is built per run via [`default_suite`].
pub trait Oracle {
    /// Stable name, used in violation reports and repro files.
    fn name(&self) -> &'static str;

    /// Checks the invariant after one event. The first `Err` aborts the
    /// run; the message should say what was observed vs expected.
    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String>;

    /// Checked once when the run completes (horizon reached, queue drained,
    /// or budget exhausted).
    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let _ = ctx;
        Ok(())
    }

    /// Told that a server changed between two events (a harness mutated
    /// it directly), so the next check must not assume that only the
    /// event's node moved. The server-state folds' next take of their
    /// snapshots reads every server.
    fn servers_mutated(&mut self) {}
}

/// Builds one instance of every oracle in the catalog.
pub fn default_suite() -> Vec<Box<dyn Oracle>> {
    // The first server-state fold takes the shared snapshots at each check;
    // the eight after it read what it took.
    let s = Rc::default();
    vec![
        Box::new(VirtualClockOracle::default()),
        Box::new(PerServer::<TokenConservation>::new(&s, true)),
        Box::new(PerServer::<TokenUniqueness>::new(&s, false)),
        Box::new(PerServer::<BidMonotonicity>::new(&s, false)),
        Box::new(PerServer::<AgeMonotonicity>::new(&s, false)),
        Box::new(PerServer::<AgeConservation>::new(&s, false)),
        Box::new(PerServer::<CounterConsistency>::new(&s, false)),
        Box::new(MetricsConsistencyOracle::default()),
        Box::new(PerServer::<ExchangeLedger>::new(&s, false)),
        Box::new(PerServer::<Membership>::new(&s, false)),
        Box::new(PerServer::<ModelHull>::new(&s, false)),
        Box::new(CodecByteOracle::new()),
        Box::new(AvailabilityOracle::new()),
        Box::new(LivenessOracle::new()),
    ]
}

#[cfg(test)]
mod tests;
