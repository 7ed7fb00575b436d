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
//! | `liveness`            | a clean run processes updates and stays finite       |
//!
//! Oracles that only hold conditionally consult the scenario flags in the
//! context (`clean`, `byzantine_free`, `codec`) so faulty runs are not
//! flagged for documented degraded-mode behaviour.

use spyker_core::client::FlClient;
use spyker_core::cohort::CohortClient;
use spyker_core::msg::FlMsg;
use spyker_core::server::SpykerServer;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{MetricId, MetricKind, Metrics, Node, NodeId, SimTime, SpanStat, TapKind};

#[cfg(test)]
mod reference;

/// Slack for `f64` age comparisons (ages are sums of `f32`-derived
/// weights; exact equality is still expected for the integer counters).
const AGE_EPS: f64 = 1e-6;
/// Slack for `f32` model-coordinate hull checks (lerp rounding).
const HULL_EPS: f32 = 1e-3;

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
/// references) dominated the harness. Oracles reach servers through
/// [`OracleCtx::server`] / [`OracleCtx::servers`], which downcast on
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

impl<'a> OracleCtx<'a> {
    fn n_servers(&self) -> usize {
        self.server_nodes.len()
    }

    /// The `i`-th server actor (position in [`OracleCtx::server_nodes`]).
    ///
    /// # Panics
    ///
    /// Panics if the node at that id is not a [`SpykerServer`].
    pub fn server(&self, i: usize) -> &'a SpykerServer {
        self.nodes[self.server_nodes[i]]
            .as_any()
            .downcast_ref::<SpykerServer>()
            .expect("server node ids are SpykerServers")
    }

    /// Every server actor, in [`OracleCtx::server_nodes`] order.
    pub fn servers(&self) -> impl Iterator<Item = &'a SpykerServer> + '_ {
        (0..self.server_nodes.len()).map(move |i| self.server(i))
    }
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
}

/// The counters an oracle reads, named once and resolved to [`MetricId`]s
/// on the oracle's first check, so the per-event read is an indexed load
/// instead of a name lookup.
///
/// Every name must be a catalog counter: the registry pre-registers the
/// catalog in a fixed order, so the cached ids hold against any collector
/// the oracle is later shown. `Metrics::counter` answers 0 for a name
/// nobody registered, which would let a typo'd identity check `0 == 0`
/// forever; here such a name is an error from the first read.
struct Counters<const N: usize> {
    names: [&'static str; N],
    ids: Option<[MetricId; N]>,
}

impl<const N: usize> Counters<N> {
    const fn new(names: [&'static str; N]) -> Self {
        Self { names, ids: None }
    }

    /// The ids of the named counters, looked up in `metrics` on first use.
    fn resolve(&mut self, oracle: &str, metrics: &Metrics) -> Result<[MetricId; N], String> {
        if let Some(ids) = self.ids {
            return Ok(ids);
        }
        let registry = metrics.registry();
        let counter = |name: &str| {
            registry
                .lookup(name)
                .filter(|id| id.kind() == MetricKind::Counter)
        };
        if let Some(name) = self.names.iter().find(|name| counter(name).is_none()) {
            return Err(format!(
                "oracle {oracle} reads `{name}`, which is not a registered counter"
            ));
        }
        let ids = self.names.map(|name| counter(name).expect("checked above"));
        Ok(*self.ids.insert(ids))
    }

    /// The counters' current values, in the order they were named.
    fn read(&mut self, oracle: &str, metrics: &Metrics) -> Result<[u64; N], String> {
        let ids = self.resolve(oracle, metrics)?;
        Ok(ids.map(|id| metrics.counter_value(id)))
    }
}

/// Builds one instance of every oracle in the catalog.
pub fn default_suite() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(VirtualClockOracle {
            last: SimTime::ZERO,
        }),
        Box::new(TokenConservationOracle { held: None }),
        Box::new(TokenUniquenessOracle),
        Box::new(BidMonotonicityOracle { last: None }),
        Box::new(AgeMonotonicityOracle { last: None }),
        Box::new(AgeConservationOracle::new()),
        Box::new(CounterConsistencyOracle::new()),
        Box::new(MetricsConsistencyOracle::new()),
        Box::new(ExchangeLedgerOracle),
        Box::new(MembershipOracle { last: None }),
        Box::new(ModelHullOracle { hull: None }),
        Box::new(CodecByteOracle::new()),
        Box::new(AvailabilityOracle::new()),
        Box::new(LivenessOracle::new()),
    ]
}

/// Virtual time is monotone: the DES must never hand events out of order.
struct VirtualClockOracle {
    last: SimTime,
}

impl Oracle for VirtualClockOracle {
    fn name(&self) -> &'static str {
        "virtual-clock"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        if ctx.time < self.last {
            return Err(format!(
                "virtual clock went backwards: {} after {}",
                ctx.time, self.last
            ));
        }
        self.last = ctx.time;
        Ok(())
    }
}

/// A server may only *acquire* the token through a `TokenPass` delivery,
/// a watchdog regeneration, or holding it from the start — never out of
/// thin air. This is the oracle the `debug_force_token` injection trips:
/// the forged token appears between events, so the first event after the
/// injection sees an acquisition with no qualifying cause.
struct TokenConservationOracle {
    /// `(has_token, tokens_regenerated)` per server at the last check.
    /// Updated in place — no per-event snapshot allocation.
    held: Option<Vec<(bool, u64)>>,
}

impl Oracle for TokenConservationOracle {
    fn name(&self) -> &'static str {
        "token-conservation"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        match &mut self.held {
            Some(prev) if prev.len() == ctx.n_servers() => {
                for (i, slot) in prev.iter_mut().enumerate() {
                    let s = ctx.server(i);
                    let (was, regen_was) = *slot;
                    let (is, regen_is) = (s.has_token(), s.tokens_regenerated());
                    if is && !was {
                        let caused_by_pass = ctx
                            .event
                            .is_some_and(|e| e.token_delivered && e.node == ctx.server_nodes[i]);
                        let caused_by_regen = regen_is > regen_was;
                        if !caused_by_pass && !caused_by_regen {
                            return Err(format!(
                                "server {i} acquired a token (bid {:?}) without a TokenPass \
                                 delivery or a regeneration",
                                s.token_bid()
                            ));
                        }
                    }
                    *slot = (is, regen_is);
                }
            }
            _ => {
                self.held = Some(
                    ctx.servers()
                        .map(|s| (s.has_token(), s.tokens_regenerated()))
                        .collect(),
                );
            }
        }
        Ok(())
    }
}

/// At most one live token per regeneration epoch: the number of
/// simultaneous holders never exceeds `1 + Σ tokens_regenerated` (each
/// regeneration can at worst coexist with one stale token until the stale
/// copy is dropped).
struct TokenUniquenessOracle;

impl Oracle for TokenUniquenessOracle {
    fn name(&self) -> &'static str {
        "token-uniqueness"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let mut n_holders = 0u64;
        let mut regenerated = 0u64;
        for s in ctx.servers() {
            n_holders += u64::from(s.has_token());
            regenerated += s.tokens_regenerated();
        }
        if n_holders > 1 + regenerated {
            // Only build the holder list on the (terminal) failure path.
            let holders: Vec<usize> = (0..ctx.n_servers())
                .filter(|&i| ctx.server(i).has_token())
                .collect();
            return Err(format!(
                "{n_holders} servers hold a token simultaneously ({holders:?}) with only \
                 {regenerated} regenerations"
            ));
        }
        Ok(())
    }
}

/// Each server's `highest_bid_seen` is monotone non-decreasing.
struct BidMonotonicityOracle {
    last: Option<Vec<u64>>,
}

impl Oracle for BidMonotonicityOracle {
    fn name(&self) -> &'static str {
        "bid-monotonicity"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        match &mut self.last {
            Some(prev) if prev.len() == ctx.n_servers() => {
                for (i, p) in prev.iter_mut().enumerate() {
                    let n = ctx.server(i).highest_bid_seen();
                    if n < *p {
                        return Err(format!(
                            "server {i}'s highest_bid_seen decreased: {p} -> {n}"
                        ));
                    }
                    *p = n;
                }
            }
            _ => self.last = Some(ctx.servers().map(|s| s.highest_bid_seen()).collect()),
        }
        Ok(())
    }
}

/// A server's knowledge of *peer* ages only moves forward (entries are
/// exclusively max-merged), and every age stays finite and non-negative.
/// Two exemptions: a server's own slot (the sigmoid-weighted exchange
/// blends its live age *toward* a peer's, which may lower it), and a
/// membership transition — a join-accept replaces the whole vector with
/// the sponsor's view and a stand-down re-keys the slot, so monotonicity
/// only binds within one stable incarnation (detected as an unchanged
/// slot between snapshots).
struct AgeMonotonicityOracle {
    /// Per server: `(slot, ages)` at the last check. The inner `Vec`s are
    /// reused across events (`clear` + `extend_from_slice`), so the
    /// steady-state check allocates nothing.
    last: Option<Vec<(usize, Vec<f64>)>>,
}

impl Oracle for AgeMonotonicityOracle {
    fn name(&self) -> &'static str {
        "age-monotonicity"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let prev = match &mut self.last {
            Some(prev) if prev.len() == ctx.n_servers() => prev,
            _ => {
                self.last = Some(
                    ctx.servers()
                        .map(|s| (s.server_idx(), s.known_ages().to_vec()))
                        .collect(),
                );
                self.last.as_mut().expect("just set")
            }
        };
        for (i, (pslot, pages)) in prev.iter_mut().enumerate() {
            let s = ctx.server(i);
            let slot = s.server_idx();
            let ages = s.known_ages();
            for (j, &a) in ages.iter().enumerate() {
                if !a.is_finite() || a < 0.0 {
                    return Err(format!("server {i}'s age entry for {j} is {a}"));
                }
            }
            // Same incarnation (unchanged slot): peer entries are
            // max-merged only, so they must not have decreased.
            if *pslot == slot {
                for (j, (pa, na)) in pages.iter().zip(ages).enumerate() {
                    if j != slot && na < pa {
                        return Err(format!(
                            "server {i}'s knowledge of slot {j}'s age decreased: \
                             {pa} -> {na}"
                        ));
                    }
                }
            }
            *pslot = slot;
            pages.clear();
            pages.extend_from_slice(ages);
        }
        Ok(())
    }
}

/// Ages are conserved: one processed update grows exactly one server's age
/// by at most 1, and exchanges only blend ages convexly — so no age entry
/// anywhere can exceed the global count of processed updates.
struct AgeConservationOracle {
    counters: Counters<1>,
}

impl AgeConservationOracle {
    fn new() -> Self {
        Self {
            counters: Counters::new(["updates.processed"]),
        }
    }
}

impl Oracle for AgeConservationOracle {
    fn name(&self) -> &'static str {
        "age-conservation"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let [processed] = self.counters.read(self.name(), ctx.metrics)?;
        let bound = processed as f64 + AGE_EPS;
        for (i, s) in ctx.servers().enumerate() {
            if s.age() > bound {
                return Err(format!(
                    "server {i}'s age {} exceeds the {processed} updates processed globally",
                    s.age(),
                ));
            }
            for (j, &a) in s.known_ages().iter().enumerate() {
                if a > bound {
                    return Err(format!(
                        "server {i} believes server {j}'s age is {a}, above the \
                         {processed} updates processed globally",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The metric counters and the per-actor ledgers are two recordings of the
/// same history; they must agree exactly, and every aggregate counter must
/// equal the sum of its cause-tagged children.
struct CounterConsistencyOracle {
    ledgers: Counters<6>,
    rejected_by_cause: Counters<5>,
    bytes_by_kind: Counters<3>,
    dropped_by_cause: Counters<5>,
    byzantine_by_attack: Counters<5>,
}

/// The per-server ledger behind each counter of
/// [`CounterConsistencyOracle::ledgers`], in the same order.
const SERVER_LEDGERS: [fn(&SpykerServer) -> u64; 6] = [
    SpykerServer::processed_updates,
    SpykerServer::syncs_triggered,
    SpykerServer::server_aggs,
    SpykerServer::tokens_regenerated,
    SpykerServer::degraded_syncs,
    SpykerServer::rejected_updates,
];

impl CounterConsistencyOracle {
    const NAME: &'static str = "counter-consistency";

    fn new() -> Self {
        Self {
            ledgers: Counters::new([
                "updates.processed",
                "syncs.triggered",
                "server.aggs",
                "token.regenerated",
                "sync.degraded",
                "agg.rejected",
            ]),
            rejected_by_cause: Counters::new([
                "agg.rejected",
                "agg.rejected.nonfinite",
                "agg.rejected.norm",
                "agg.rejected.stale",
                "agg.rejected.peer",
            ]),
            bytes_by_kind: Counters::new([
                "net.bytes",
                "net.bytes.client-server",
                "net.bytes.server-server",
            ]),
            dropped_by_cause: Counters::new([
                "fault.dropped",
                "fault.dropped.loss",
                "fault.dropped.scripted",
                "fault.dropped.partition",
                "fault.dropped.conn",
            ]),
            byzantine_by_attack: Counters::new([
                "fault.byzantine",
                "fault.byzantine.signflip",
                "fault.byzantine.scale",
                "fault.byzantine.noise",
                "fault.byzantine.nan",
            ]),
        }
    }

    fn check_eq(name: &str, counter: u64, ledger: u64) -> Result<(), String> {
        if counter != ledger {
            return Err(format!(
                "counter {name} is {counter} but the actor ledgers sum to {ledger}"
            ));
        }
        Ok(())
    }

    /// The first counter of `parts` is an aggregate and must equal the sum
    /// of the others, its cause-tagged children.
    fn check_parts<const N: usize>(
        what: &str,
        parts: &mut Counters<N>,
        metrics: &Metrics,
    ) -> Result<(), String> {
        let values = parts.read(Self::NAME, metrics)?;
        Self::check_eq(what, values[0], values[1..].iter().sum())
    }
}

impl Oracle for CounterConsistencyOracle {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let m = ctx.metrics;
        let counters = self.ledgers.read(Self::NAME, m)?;
        for ((name, counter), ledger) in self.ledgers.names.iter().zip(counters).zip(SERVER_LEDGERS)
        {
            Self::check_eq(name, counter, ctx.servers().map(ledger).sum())?;
        }
        Self::check_parts("agg.rejected (by cause)", &mut self.rejected_by_cause, m)?;
        Self::check_parts("net.bytes (by kind)", &mut self.bytes_by_kind, m)?;
        Self::check_parts("fault.dropped (by cause)", &mut self.dropped_by_cause, m)?;
        Self::check_parts(
            "fault.byzantine (by attack)",
            &mut self.byzantine_by_attack,
            m,
        )
    }
}

/// The observability layer's own books stay coherent: tracing spans remain
/// enter/exit balanced on every node (no span completes more often than it
/// was entered, and no exit ever arrives with no span open), and every
/// metric counter is monotone non-decreasing over the run — a counter that
/// shrinks means some code path wrote the registry directly instead of
/// going through the accumulate-only API.
///
/// What is re-checked per event is what the event can have moved. Counters:
/// the registry keeps them in one dense slab, compared wholesale against
/// the copy taken at the last check. Spans: every span emission is stamped
/// with the node whose handler (or fault transition) is running, and the
/// simulator runs exactly one node between two checks — so once every row
/// has been checked, only the rows of [`EventInfo::node`] can differ from
/// what the last check saw, and re-checking those is as strong as
/// re-checking all of them. The first check, a check outside any event and
/// the end-of-run pass walk the whole store.
struct MetricsConsistencyOracle {
    /// The registry's counter slab at the last check.
    last_counters: Vec<u64>,
    /// `true` once a check has walked every span row.
    spans_walked: bool,
}

impl MetricsConsistencyOracle {
    fn new() -> Self {
        Self {
            last_counters: Vec::new(),
            spans_walked: false,
        }
    }

    fn check_balance(node: u32, name: &str, stat: &SpanStat) -> Result<(), String> {
        if stat.completed > stat.entered {
            return Err(format!(
                "span {name} on node {node} completed {} times but was only \
                 entered {} times",
                stat.completed, stat.entered
            ));
        }
        Ok(())
    }

    /// Checks the span rows of `only_node` (every row when `None`) and the
    /// whole counter slab.
    fn verify(&mut self, ctx: &OracleCtx<'_>, only_node: Option<u32>) -> Result<(), String> {
        let spans = ctx.metrics.spans();
        if spans.unbalanced_exits() > 0 {
            return Err(format!(
                "{} span exits arrived with no matching span open",
                spans.unbalanced_exits()
            ));
        }
        match only_node {
            Some(node) => {
                for (name, stat) in spans.node_stats(node) {
                    Self::check_balance(node, name, stat)?;
                }
            }
            None => {
                for (node, name, stat) in spans.stats() {
                    Self::check_balance(node, name, stat)?;
                }
                self.spans_walked = true;
            }
        }
        let registry = ctx.metrics.registry();
        let counters = registry.counter_values();
        // A name first used mid-run appends a slot; it is tracked from this
        // check on, like every slot at the first check.
        let decreased = counters
            .iter()
            .zip(&self.last_counters)
            .any(|(value, last)| value < last);
        if decreased {
            // Name the first offender in name order, as reports list them.
            for (name, value) in registry.counters() {
                let slot = registry.lookup(name).map(MetricId::index);
                if let Some(&last) = slot.and_then(|slot| self.last_counters.get(slot)) {
                    if value < last {
                        return Err(format!("counter {name} decreased: {last} -> {value}"));
                    }
                }
            }
        }
        self.last_counters.clear();
        self.last_counters.extend_from_slice(counters);
        Ok(())
    }
}

impl Oracle for MetricsConsistencyOracle {
    fn name(&self) -> &'static str {
        "metrics-consistency"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let only_node = ctx
            .event
            .filter(|_| self.spans_walked)
            .and_then(|e| u32::try_from(e.node).ok());
        self.verify(ctx, only_node)
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        self.verify(ctx, None)
    }
}

/// The exchange ledger stays coherent: a synchronising server holds the
/// token and has broadcast under its bid, a held bid never exceeds the
/// highest bid seen, and no exchange collects more models than there are
/// servers.
struct ExchangeLedgerOracle;

impl Oracle for ExchangeLedgerOracle {
    fn name(&self) -> &'static str {
        "exchange-ledger"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let n = ctx.n_servers();
        for (i, s) in ctx.servers().enumerate() {
            if let Some(bid) = s.token_bid() {
                if bid > s.highest_bid_seen() {
                    return Err(format!(
                        "server {i} holds bid {bid} above its highest_bid_seen {}",
                        s.highest_bid_seen()
                    ));
                }
                if s.models_counted(bid) > n {
                    return Err(format!(
                        "server {i} counted {} models for bid {bid} in a ring of {n}",
                        s.models_counted(bid)
                    ));
                }
                if s.is_synchronising() && !s.has_broadcast(bid) {
                    return Err(format!(
                        "server {i} is synchronising under bid {bid} without having \
                         broadcast its model"
                    ));
                }
            } else if s.is_synchronising() {
                return Err(format!(
                    "server {i} is synchronising without holding the token"
                ));
            }
        }
        Ok(())
    }
}

/// Membership stays sane across ring epochs: each server's epoch is
/// monotone non-decreasing, lifecycle phases only move along the legal
/// edges of the state machine (`standby → live` on join, `live →
/// draining → departed` on a voluntary leave, `live → standby` when an
/// evicted-but-alive server stands down, `departed → standby` on
/// recommission), and only a live member ever holds the ring token —
/// a leaver hands its token off *before* it starts draining.
struct MembershipOracle {
    /// Per server: `(ring_epoch, phase)` at the last check.
    last: Option<Vec<(u64, &'static str)>>,
}

impl MembershipOracle {
    fn legal(from: &str, to: &str) -> bool {
        matches!(
            (from, to),
            ("standby", "live")
                | ("live", "draining")
                | ("live", "standby")
                | ("draining", "departed")
                | ("departed", "standby")
        )
    }
}

impl Oracle for MembershipOracle {
    fn name(&self) -> &'static str {
        "membership"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        for (i, s) in ctx.servers().enumerate() {
            if s.membership_phase() != "live" && s.has_token() {
                return Err(format!(
                    "server {i} holds the token while {}",
                    s.membership_phase()
                ));
            }
        }
        match &mut self.last {
            Some(prev) if prev.len() == ctx.n_servers() => {
                for (i, slot) in prev.iter_mut().enumerate() {
                    let s = ctx.server(i);
                    let (pe, pp) = *slot;
                    let (ne, np) = (s.ring_epoch(), s.membership_phase());
                    if ne < pe {
                        return Err(format!("server {i}'s ring epoch decreased: {pe} -> {ne}"));
                    }
                    if pp != np && !Self::legal(pp, np) {
                        return Err(format!(
                            "server {i} made an illegal phase transition: {pp} -> {np}"
                        ));
                    }
                    *slot = (ne, np);
                }
            }
            _ => {
                self.last = Some(
                    ctx.servers()
                        .map(|s| (s.ring_epoch(), s.membership_phase()))
                        .collect(),
                );
            }
        }
        Ok(())
    }
}

/// Without Byzantine clients every update is a convex pull toward some
/// client target, and every merge (robust or not) is a convex combination
/// — so each model coordinate stays inside the hull spanned by the zero
/// initialisation and the client targets.
struct ModelHullOracle {
    /// Cached `(lo, hi)` hull bounds: the targets are fixed for the whole
    /// run, so folding over all of them (`O(n_clients)`) on every event is
    /// pure waste at 10⁵+ clients.
    hull: Option<(f32, f32)>,
}

impl Oracle for ModelHullOracle {
    fn name(&self) -> &'static str {
        "model-hull"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        if !ctx.byzantine_free || ctx.targets.is_empty() {
            return Ok(());
        }
        // A lossy codec adds bounded quantization/sparsification error on
        // top of every honest update, and error feedback re-injects the
        // dropped mass later — both can legitimately push a coordinate a
        // step past the hull, so the invariant only binds on dense runs.
        if ctx.codec.is_some_and(|c| c.is_lossy()) {
            return Ok(());
        }
        let (lo, hi) = *self.hull.get_or_insert_with(|| {
            (
                ctx.targets.iter().copied().fold(0.0f32, f32::min) - HULL_EPS,
                ctx.targets.iter().copied().fold(0.0f32, f32::max) + HULL_EPS,
            )
        });
        for (i, s) in ctx.servers().enumerate() {
            for (c, &v) in s.params().as_slice().iter().enumerate() {
                if !(lo..=hi).contains(&v) {
                    return Err(format!(
                        "server {i}'s model coordinate {c} is {v}, outside the honest \
                         hull [{lo}, {hi}]"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The codec byte ledger stays coherent on every event: a quantizing
/// pipeline never inflates the wire (`net.bytes.encoded ≤ net.bytes.raw`,
/// with `net.bytes.saved` exactly the difference), no payload ever fails
/// to parse (the simulator's Byzantine corruption is value-preserving by
/// design — a decode error means framing broke), and the servers never
/// decode more updates than the clients sent. At the end of the run the
/// metric counters are reconciled against the per-client encoder ledgers
/// — two independent recordings of the same uploads — and a clean run
/// must have decoded traffic with zero reference misses.
struct CodecByteOracle {
    counters: Counters<8>,
}

impl CodecByteOracle {
    fn new() -> Self {
        Self {
            counters: Counters::new([
                "net.bytes.raw",
                "net.bytes.encoded",
                "net.bytes.saved",
                "codec.decode_error",
                "codec.decoded",
                "codec.ref_miss",
                "updates.sent",
                "updates.processed",
            ]),
        }
    }
}

impl Oracle for CodecByteOracle {
    fn name(&self) -> &'static str {
        "codec-bytes"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let [raw, encoded, saved, decode_errors, decoded, missed, sent, _] =
            self.counters.read(self.name(), ctx.metrics)?;
        let Some(codec) = ctx.codec else {
            return Ok(());
        };
        // Quantization caps every kept coordinate at one byte (plus the
        // fixed header), so at the dimensions codec scenarios run at the
        // encoded upload is strictly below the 4-bytes-per-coordinate
        // dense message — per message, hence also in total.
        if codec.quant.is_some() && encoded > raw {
            return Err(format!(
                "a quantizing pipeline inflated the wire: {encoded} encoded bytes \
                 vs {raw} raw"
            ));
        }
        if encoded <= raw && saved != raw - encoded {
            return Err(format!(
                "byte ledger identity broken: saved {saved} != raw {raw} - \
                 encoded {encoded}"
            ));
        }
        if decode_errors > 0 {
            return Err(format!(
                "{decode_errors} payloads failed to parse — in-simulation faults never \
                 truncate frames"
            ));
        }
        if decoded + missed > sent {
            return Err(format!(
                "{decoded} decodes + {missed} reference misses exceed the \
                 {sent} updates ever sent"
            ));
        }
        Ok(())
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        if ctx.codec.is_none() {
            return Ok(());
        }
        self.check(ctx)?;
        let [counted_raw, counted_encoded, _, _, decoded, missed, _, processed] =
            self.counters.read(self.name(), ctx.metrics)?;
        // Reconcile the run-wide counters against the per-client encoder
        // ledgers: every byte the counters claim must be attributable to
        // some client's encoder, and vice versa.
        let (mut raw, mut encoded) = (0u64, 0u64);
        for node in ctx.nodes {
            let any = node.as_any();
            let ledger = any
                .downcast_ref::<FlClient>()
                .and_then(FlClient::codec_ledger)
                .or_else(|| {
                    any.downcast_ref::<CohortClient>()
                        .and_then(|c| c.inner().codec_ledger())
                });
            if let Some((r, e)) = ledger {
                raw += r;
                encoded += e;
            }
        }
        if raw != counted_raw || encoded != counted_encoded {
            return Err(format!(
                "counters ({counted_raw}, {counted_encoded}) disagree with the client \
                 encoder ledgers ({raw}, {encoded})",
            ));
        }
        if !ctx.clean {
            return Ok(());
        }
        if missed > 0 {
            return Err(format!(
                "a clean run missed {missed} delta references (history depth must \
                 cover the in-flight window)",
            ));
        }
        if !ctx.budget_exhausted && processed > 0 && decoded == 0 {
            return Err("updates were processed but none arrived encoded".to_string());
        }
        Ok(())
    }
}

/// Availability windows are airtight: an offline node never runs a
/// handler, transitions alternate (no double-offline, no online without a
/// matching offline), discards only happen at nodes that are actually
/// offline, and the `sim.availability.*` counters agree with the
/// transition events the tap reported.
///
/// The oracle reconstructs the offline set purely from
/// [`TapKind::Offline`] / [`TapKind::Online`] events, so it is an
/// *independent* witness of the DES bookkeeping rather than a readback of
/// it.
pub(crate) struct AvailabilityOracle {
    /// Nodes currently tracked offline (reconstructed from tap events).
    offline: std::collections::BTreeSet<NodeId>,
    /// Offline / online / discarded transitions witnessed so far.
    tally: [u64; 3],
    /// The `sim.availability.*` counters the tallies must equal, in tally
    /// order.
    counters: Counters<3>,
}

impl AvailabilityOracle {
    pub(crate) fn new() -> Self {
        AvailabilityOracle {
            offline: std::collections::BTreeSet::new(),
            tally: [0; 3],
            counters: Counters::new([
                "sim.availability.offline",
                "sim.availability.online",
                "sim.availability.discarded",
            ]),
        }
    }

    fn check_tallies(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let counted = self.counters.read("availability", ctx.metrics)?;
        for ((name, got), want) in self.counters.names.iter().zip(counted).zip(self.tally) {
            if got != want {
                return Err(format!(
                    "counter {name} is {got} but the tap reported {want} such events"
                ));
            }
        }
        Ok(())
    }
}

impl Oracle for AvailabilityOracle {
    fn name(&self) -> &'static str {
        "availability"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        self.witness(ctx)?;
        self.check_tallies(ctx)
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        // Nodes may legitimately end the run offline (a window crossing the
        // horizon), so only the books are re-checked here.
        self.check_tallies(ctx)
    }
}

impl AvailabilityOracle {
    /// Folds the event into the reconstructed offline set and tallies,
    /// flagging a transition or handler the set forbids.
    fn witness(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        if let Some(e) = ctx.event {
            match e.kind {
                TapKind::Offline => {
                    if !self.offline.insert(e.node) {
                        return Err(format!(
                            "node {} went offline while already offline",
                            e.node
                        ));
                    }
                    self.tally[0] += 1;
                }
                TapKind::Online => {
                    if !self.offline.remove(&e.node) {
                        return Err(format!(
                            "node {} came online with no matching offline transition",
                            e.node
                        ));
                    }
                    self.tally[1] += 1;
                }
                TapKind::OfflineDiscarded => {
                    if !self.offline.contains(&e.node) {
                        return Err(format!(
                            "an event was availability-discarded at node {}, which is \
                             not offline",
                            e.node
                        ));
                    }
                    self.tally[2] += 1;
                }
                TapKind::Start | TapKind::Deliver | TapKind::Timer => {
                    if self.offline.contains(&e.node) {
                        return Err(format!(
                            "offline node {} ran a {:?} handler",
                            e.node, e.kind
                        ));
                    }
                }
                // Crash faults are orthogonal to availability: a crash or
                // restart may land inside an offline window (the DES defers
                // the restart hook to the Online edge), and crash discards
                // are the fault layer's business.
                TapKind::Crash | TapKind::Restart | TapKind::Discarded => {}
            }
        }
        Ok(())
    }
}

/// End-of-run sanity for clean scenarios: the system made progress, no
/// update was rejected (nothing dishonest ran), models and ages are
/// consistent with the work done, and no more updates are in flight than
/// clients exist to have sent them.
struct LivenessOracle {
    counters: Counters<3>,
}

impl LivenessOracle {
    fn new() -> Self {
        Self {
            counters: Counters::new(["updates.sent", "updates.processed", "agg.rejected"]),
        }
    }
}

impl Oracle for LivenessOracle {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        // Nothing to check mid-run, but a counter name the registry does
        // not know should fail the first event, not the end of a long run.
        self.counters.resolve(self.name(), ctx.metrics).map(drop)
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        for (i, s) in ctx.servers().enumerate() {
            if !s.params().is_finite() {
                return Err(format!("server {i} ended with a non-finite model"));
            }
            if s.processed_updates() > 0 && s.age() <= 0.0 {
                return Err(format!(
                    "server {i} processed {} updates but its age is {}",
                    s.processed_updates(),
                    s.age()
                ));
            }
        }
        if !ctx.clean {
            return Ok(());
        }
        let [sent, processed, rejected] = self.counters.read(self.name(), ctx.metrics)?;
        if rejected != 0 {
            return Err(format!("a clean run rejected {rejected} updates"));
        }
        if sent < processed {
            return Err(format!(
                "{processed} updates processed but only {sent} were ever sent"
            ));
        }
        // Each client has at most one update in flight at a time.
        if sent - processed > ctx.n_clients as u64 {
            return Err(format!(
                "{} updates lost in a clean run ({sent} sent, {processed} processed, \
                 {} clients)",
                sent - processed,
                ctx.n_clients
            ));
        }
        if !ctx.budget_exhausted && processed == 0 {
            return Err("a clean full-horizon run processed zero updates".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
