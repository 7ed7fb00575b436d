//! The pre-rewrite bodies of the oracles that now read counters through
//! cached ids and re-check spans per event node, kept verbatim as the
//! reference the differential tests below compare against: whole-store span
//! scans, a name-keyed counter map, one `Metrics::counter("…")` lookup per
//! read. [`reference_suite`] is [`default_suite`] with those six swapped in.

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
        let sc = (0..64)
            .map(SimScenario::generate)
            .find(|s| s.n_servers >= 2 && s.fault_count() > 0)
            .expect("a multi-server faulty scenario in the first 64 seeds");
        let mut caught = 0;
        for server in 0..sc.n_servers {
            let mut injected = sc.clone();
            injected.inject = Some(Injection::DuplicateToken {
                at: SimTime::from_micros(sc.horizon.as_micros() / 2),
                server,
            });
            let outcome = same_verdict(&injected, &format!("token forged at server {server}"));
            caught += usize::from(outcome.is_violated());
        }
        assert!(caught > 0, "no ring position caught the duplicate token");
    }
}
