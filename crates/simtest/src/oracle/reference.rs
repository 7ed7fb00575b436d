//! The oracles the differential tests below compare the suite against,
//! each a full-scan, by-name body kept verbatim from before a rewrite:
//!
//! - the six that now read counters through cached ids and re-check spans
//!   per event node: whole-store span scans, a name-keyed counter map, one
//!   `Metrics::counter("…")` lookup per read;
//! - the nine server-state oracles, which now re-read only the event's
//!   server: each walks every server after every event (age-conservation
//!   and counter-consistency are in both sets).
//!
//! [`reference_suite`] is [`default_suite`] with all of them swapped in.

use super::*;
use crate::harness::{run_scenario, run_with_suite, RunOutcome};
use crate::scenario::{Injection, SimScenario};

/// [`default_suite`], with every rewritten oracle replaced by its
/// full-scan, by-name predecessor.
pub(crate) fn reference_suite() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(VirtualClockOracle {
            last: SimTime::ZERO,
        }),
        Box::new(TokenConservationOracle { held: None }),
        Box::new(TokenUniquenessOracle),
        Box::new(BidMonotonicityOracle { last: None }),
        Box::new(AgeMonotonicityOracle { last: None }),
        Box::new(AgeConservationOracle),
        Box::new(CounterConsistencyOracle),
        Box::new(MetricsConsistencyOracle {
            last_counters: std::collections::BTreeMap::new(),
        }),
        Box::new(ExchangeLedgerOracle),
        Box::new(MembershipOracle { last: None }),
        Box::new(ModelHullOracle { hull: None }),
        Box::new(CodecByteOracle),
        Box::new(AvailabilityByName(super::AvailabilityOracle::new())),
        Box::new(LivenessOracle),
    ]
}

struct AgeConservationOracle;

impl Oracle for AgeConservationOracle {
    fn name(&self) -> &'static str {
        "age-conservation"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let bound = ctx.metrics.counter("updates.processed") as f64 + AGE_EPS;
        for (i, s) in ctx.servers().enumerate() {
            if s.age() > bound {
                return Err(format!(
                    "server {i}'s age {} exceeds the {} updates processed globally",
                    s.age(),
                    ctx.metrics.counter("updates.processed")
                ));
            }
            for (j, &a) in s.known_ages().iter().enumerate() {
                if a > bound {
                    return Err(format!(
                        "server {i} believes server {j}'s age is {a}, above the \
                         {} updates processed globally",
                        ctx.metrics.counter("updates.processed")
                    ));
                }
            }
        }
        Ok(())
    }
}

struct CounterConsistencyOracle;

impl CounterConsistencyOracle {
    fn check_eq(name: &str, counter: u64, ledger: u64) -> Result<(), String> {
        if counter != ledger {
            return Err(format!(
                "counter {name} is {counter} but the actor ledgers sum to {ledger}"
            ));
        }
        Ok(())
    }
}

impl Oracle for CounterConsistencyOracle {
    fn name(&self) -> &'static str {
        "counter-consistency"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let m = ctx.metrics;
        let sum = |f: fn(&SpykerServer) -> u64| ctx.servers().map(f).sum::<u64>();
        Self::check_eq(
            "updates.processed",
            m.counter("updates.processed"),
            sum(SpykerServer::processed_updates),
        )?;
        Self::check_eq(
            "syncs.triggered",
            m.counter("syncs.triggered"),
            sum(SpykerServer::syncs_triggered),
        )?;
        Self::check_eq(
            "server.aggs",
            m.counter("server.aggs"),
            sum(SpykerServer::server_aggs),
        )?;
        Self::check_eq(
            "token.regenerated",
            m.counter("token.regenerated"),
            sum(SpykerServer::tokens_regenerated),
        )?;
        Self::check_eq(
            "sync.degraded",
            m.counter("sync.degraded"),
            sum(SpykerServer::degraded_syncs),
        )?;
        Self::check_eq(
            "agg.rejected",
            m.counter("agg.rejected"),
            sum(SpykerServer::rejected_updates),
        )?;
        Self::check_eq(
            "agg.rejected (by cause)",
            m.counter("agg.rejected"),
            m.counter("agg.rejected.nonfinite")
                + m.counter("agg.rejected.norm")
                + m.counter("agg.rejected.stale")
                + m.counter("agg.rejected.peer"),
        )?;
        Self::check_eq(
            "net.bytes (by kind)",
            m.counter("net.bytes"),
            m.counter("net.bytes.client-server") + m.counter("net.bytes.server-server"),
        )?;
        Self::check_eq(
            "fault.dropped (by cause)",
            m.counter("fault.dropped"),
            m.counter("fault.dropped.loss")
                + m.counter("fault.dropped.scripted")
                + m.counter("fault.dropped.partition")
                + m.counter("fault.dropped.conn"),
        )?;
        Self::check_eq(
            "fault.byzantine (by attack)",
            m.counter("fault.byzantine"),
            m.counter("fault.byzantine.signflip")
                + m.counter("fault.byzantine.scale")
                + m.counter("fault.byzantine.noise")
                + m.counter("fault.byzantine.nan"),
        )?;
        Ok(())
    }
}

struct MetricsConsistencyOracle {
    last_counters: std::collections::BTreeMap<String, u64>,
}

impl Oracle for MetricsConsistencyOracle {
    fn name(&self) -> &'static str {
        "metrics-consistency"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let spans = ctx.metrics.spans();
        if spans.unbalanced_exits() > 0 {
            return Err(format!(
                "{} span exits arrived with no matching span open",
                spans.unbalanced_exits()
            ));
        }
        for (node, name, stat) in spans.stats() {
            if stat.completed > stat.entered {
                return Err(format!(
                    "span {name} on node {node} completed {} times but was only \
                     entered {} times",
                    stat.completed, stat.entered
                ));
            }
        }
        for (name, value) in ctx.metrics.registry().counters() {
            match self.last_counters.get(name).copied() {
                Some(last) if value < last => {
                    return Err(format!("counter {name} decreased: {last} -> {value}"));
                }
                Some(last) if value > last => {
                    *self.last_counters.get_mut(name).expect("just probed") = value;
                }
                Some(_) => {}
                None => {
                    self.last_counters.insert(name.to_string(), value);
                }
            }
        }
        Ok(())
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        self.check(ctx)
    }
}

struct CodecByteOracle;

impl Oracle for CodecByteOracle {
    fn name(&self) -> &'static str {
        "codec-bytes"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let Some(codec) = ctx.codec else {
            return Ok(());
        };
        let m = ctx.metrics;
        let raw = m.counter("net.bytes.raw");
        let encoded = m.counter("net.bytes.encoded");
        let saved = m.counter("net.bytes.saved");
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
        if m.counter("codec.decode_error") > 0 {
            return Err(format!(
                "{} payloads failed to parse — in-simulation faults never \
                 truncate frames",
                m.counter("codec.decode_error")
            ));
        }
        let decoded = m.counter("codec.decoded");
        let missed = m.counter("codec.ref_miss");
        let sent = m.counter("updates.sent");
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
        let m = ctx.metrics;
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
        if raw != m.counter("net.bytes.raw") || encoded != m.counter("net.bytes.encoded") {
            return Err(format!(
                "counters ({}, {}) disagree with the client encoder ledgers \
                 ({raw}, {encoded})",
                m.counter("net.bytes.raw"),
                m.counter("net.bytes.encoded"),
            ));
        }
        if !ctx.clean {
            return Ok(());
        }
        if m.counter("codec.ref_miss") > 0 {
            return Err(format!(
                "a clean run missed {} delta references (history depth must \
                 cover the in-flight window)",
                m.counter("codec.ref_miss")
            ));
        }
        if !ctx.budget_exhausted
            && m.counter("updates.processed") > 0
            && m.counter("codec.decoded") == 0
        {
            return Err("updates were processed but none arrived encoded".to_string());
        }
        Ok(())
    }
}

/// The availability oracle's event bookkeeping is unchanged; only its
/// tally-vs-counter reconciliation moved to cached ids. This is that
/// reconciliation by name.
struct AvailabilityByName(super::AvailabilityOracle);

impl AvailabilityByName {
    fn check_tallies(&self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        for (name, want) in [
            ("sim.availability.offline", self.0.tally[0]),
            ("sim.availability.online", self.0.tally[1]),
            ("sim.availability.discarded", self.0.tally[2]),
        ] {
            let got = ctx.metrics.counter(name);
            if got != want {
                return Err(format!(
                    "counter {name} is {got} but the tap reported {want} such events"
                ));
            }
        }
        Ok(())
    }
}

impl Oracle for AvailabilityByName {
    fn name(&self) -> &'static str {
        "availability"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        self.0.witness(ctx)?;
        self.check_tallies(ctx)
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        self.check_tallies(ctx)
    }
}

struct LivenessOracle;

impl Oracle for LivenessOracle {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn check(&mut self, _ctx: &OracleCtx<'_>) -> Result<(), String> {
        Ok(())
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
        let sent = ctx.metrics.counter("updates.sent");
        let processed = ctx.metrics.counter("updates.processed");
        if ctx.metrics.counter("agg.rejected") != 0 {
            return Err(format!(
                "a clean run rejected {} updates",
                ctx.metrics.counter("agg.rejected")
            ));
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

mod tests {
    use super::*;

    const BUDGET: u64 = 200_000;

    /// Runs `sc` under both suites; the verdicts — clean stats and
    /// fingerprint, or oracle name, event index and message — must be
    /// equal. Returns the shared outcome.
    fn same_verdict(sc: &SimScenario, what: &str) -> RunOutcome {
        let new = run_scenario(sc, BUDGET);
        let old = run_with_suite(sc, BUDGET, reference_suite());
        assert_eq!(new, old, "{what}: the rewritten suite changed the verdict");
        new
    }

    #[test]
    fn pinned_corpus_verdicts_are_unchanged() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).expect("the pinned corpus directory") {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("readable scenario file");
            let sc = SimScenario::from_ron(&text).expect("pinned scenarios parse");
            same_verdict(&sc, &path.display().to_string());
            seen += 1;
        }
        assert_eq!(seen, 5, "the corpus has five presets");
    }

    #[test]
    fn fuzz_verdicts_are_unchanged_with_faults_churn_and_codec() {
        for seed in 0..32 {
            let generate = [
                SimScenario::generate,
                SimScenario::generate_churn,
                SimScenario::generate_codec,
            ][seed as usize % 3];
            same_verdict(&generate(seed), &format!("seed {seed}"));
        }
    }

    #[test]
    fn token_injection_verdict_is_unchanged() {
        let multi_server = |generate: fn(u64) -> SimScenario, faulty: bool| {
            (0..64)
                .map(generate)
                .filter(move |s| s.n_servers >= 2 && (!faulty || s.fault_count() > 0))
        };
        let scenarios = multi_server(SimScenario::generate, true)
            .take(2)
            .chain(multi_server(SimScenario::generate_churn, false).take(1))
            .chain(multi_server(SimScenario::generate_codec, false).take(1));
        let (mut cases, mut caught) = (0, 0);
        for sc in scenarios {
            for server in 0..sc.n_servers {
                for (num, den) in [(1, 3), (1, 2)] {
                    let mut injected = sc.clone();
                    let at = SimTime::from_micros(sc.horizon.as_micros() * num / den);
                    injected.inject = Some(Injection::DuplicateToken { at, server });
                    let what = format!("seed {}: token forged at server {server} at {at}", sc.seed);
                    caught += usize::from(same_verdict(&injected, &what).is_violated());
                    cases += 1;
                }
            }
        }
        assert!(cases >= 16, "only {cases} injection cases");
        assert!(caught > 0, "no ring position caught the duplicate token");
    }
}
