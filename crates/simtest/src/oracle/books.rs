//! The books: counter, metrics and codec-byte ledgers.

use spyker_core::client::FlClient;
use spyker_core::cohort::CohortClient;
use spyker_simnet::{MetricId, SpanStat};

use super::adapter::{ServerFold, ServerSnapshot as Snap, Verdict};
use super::counters::Counters;
use super::{Oracle, OracleCtx};

/// A server's six ledgers, in the order of [`CounterConsistency::ledgers`].
fn books(s: &Snap) -> [u64; 6] {
    [
        s.processed,
        s.syncs,
        s.aggs,
        s.regenerated,
        s.degraded,
        s.rejected,
    ]
}

/// The groups of [`CounterConsistency::parts`]: each group's first counter
/// must equal the sum of the rest, its cause-tagged children.
const GROUPS: [(&str, usize); 4] = [
    ("agg.rejected (by cause)", 5),
    ("net.bytes (by kind)", 3),
    ("fault.dropped (by cause)", 5),
    ("fault.byzantine (by attack)", 5),
];

/// The metric counters and the per-actor ledgers are two recordings of the
/// same history; they must agree exactly, and every aggregate counter must
/// equal the sum of its cause-tagged children. The counters are read after
/// every event (any node moves them); the ledger sums are running sums.
pub(super) struct CounterConsistency {
    ledgers: Counters<6>,
    /// Column sums of every server's last [`books`].
    sums: [u64; 6],
    /// The [`GROUPS`], one after another.
    parts: Counters<18>,
}

impl Default for CounterConsistency {
    fn default() -> Self {
        Self {
            ledgers: Counters::new([
                "updates.processed",
                "syncs.triggered",
                "server.aggs",
                "token.regenerated",
                "sync.degraded",
                "agg.rejected",
            ]),
            sums: [0; 6],
            parts: Counters::new([
                "agg.rejected",
                "agg.rejected.nonfinite",
                "agg.rejected.norm",
                "agg.rejected.stale",
                "agg.rejected.peer",
                "net.bytes",
                "net.bytes.client-server",
                "net.bytes.server-server",
                "fault.dropped",
                "fault.dropped.loss",
                "fault.dropped.scripted",
                "fault.dropped.partition",
                "fault.dropped.conn",
                "fault.byzantine",
                "fault.byzantine.signflip",
                "fault.byzantine.scale",
                "fault.byzantine.noise",
                "fault.byzantine.nan",
            ]),
        }
    }
}

fn check_eq(name: &str, counter: u64, ledger: u64) -> Verdict {
    if counter != ledger {
        return Err(format!(
            "counter {name} is {counter} but the actor ledgers sum to {ledger}"
        ));
    }
    Ok(())
}

impl ServerFold for CounterConsistency {
    const NAME: &'static str = "counter-consistency";

    fn step(&mut self, _: usize, was: Option<&Snap>, now: &Snap, _: &OracleCtx<'_>) -> Verdict {
        let was = was.map_or([0; 6], books);
        for ((sum, was), now) in self.sums.iter_mut().zip(was).zip(books(now)) {
            *sum = *sum - was + now;
        }
        Ok(())
    }

    fn settle(&mut self, _: &[Snap], ctx: &OracleCtx<'_>) -> Verdict {
        let counters = self.ledgers.read(Self::NAME, ctx.metrics)?;
        for ((name, counter), sum) in self.ledgers.names.iter().zip(counters).zip(self.sums) {
            check_eq(name, counter, sum)?;
        }
        let parts = self.parts.read(Self::NAME, ctx.metrics)?;
        let mut rest = &parts[..];
        for (what, len) in GROUPS {
            let (group, tail) = rest.split_at(len);
            check_eq(what, group[0], group[1..].iter().sum())?;
            rest = tail;
        }
        Ok(())
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
///
/// [`EventInfo::node`]: super::EventInfo::node
#[derive(Default)]
pub(super) struct MetricsConsistencyOracle {
    /// The registry's counter slab at the last check.
    pub(super) last_counters: Vec<u64>,
    /// `true` once a check has walked every span row.
    spans_walked: bool,
}

impl MetricsConsistencyOracle {
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

/// The codec byte ledger stays coherent on every event: a quantizing
/// pipeline never inflates the wire (`net.bytes.encoded ≤ net.bytes.raw`,
/// with `net.bytes.saved` exactly the difference), no payload ever fails
/// to parse (the simulator's Byzantine corruption is value-preserving by
/// design — a decode error means framing broke), and the servers never
/// decode more updates than the clients sent. At the end of the run the
/// metric counters are reconciled against the per-client encoder ledgers
/// — two independent recordings of the same uploads — and a clean run
/// must have decoded traffic with zero reference misses.
pub(super) struct CodecByteOracle {
    counters: Counters<8>,
}

impl CodecByteOracle {
    pub(super) fn new() -> Self {
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
        let Some(codec) = ctx.codec else {
            // Nothing to read, but a counter name the registry does not
            // know still fails the first event.
            return self.counters.resolve(self.name(), ctx.metrics).map(drop);
        };
        let [raw, encoded, saved, decode_errors, decoded, missed, sent, _] =
            self.counters.read(self.name(), ctx.metrics)?;
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
        let (raw, encoded) = ctx.nodes.iter().fold((0u64, 0u64), |(raw, encoded), node| {
            let any = node.as_any();
            let ledger = any
                .downcast_ref::<FlClient>()
                .and_then(FlClient::codec_ledger)
                .or_else(|| {
                    any.downcast_ref::<CohortClient>()
                        .and_then(|c| c.inner().codec_ledger())
                });
            ledger.map_or((raw, encoded), |(r, e)| (raw + r, encoded + e))
        });
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
