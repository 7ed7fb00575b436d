//! The static metric catalog.
//!
//! Every metric name the simulator, the protocol actors, the baselines and
//! the experiment harness emit is declared here once, with its kind, unit
//! and emitting site. [`crate::Registry::new`] pre-registers the whole
//! catalog (and panics on a duplicate declaration), so a typo'd emission
//! site shows up as a *dynamic* registration that the metric-name tests
//! reject — instead of silently creating a fresh counter as the old
//! stringly-typed sink did. The catalog is mirrored as a table in
//! `DESIGN.md` §12; a test keeps the two in sync.

use crate::id::{MetricKind, Unit};

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    /// The metric's unique name.
    pub name: &'static str,
    /// Counter / gauge / histogram / series.
    pub kind: MetricKind,
    /// Denomination.
    pub unit: Unit,
    /// Where the metric is emitted from.
    pub site: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// A name family: metrics whose names share a prefix and a dynamic suffix
/// (per-server series, per-message-kind byte counters). A name matching a
/// family registers with the family's kind without counting as unknown.
#[derive(Debug, Clone, Copy)]
pub struct FamilyEntry {
    /// The name prefix (suffix is instance-specific).
    pub prefix: &'static str,
    /// Kind every member of the family has.
    pub kind: MetricKind,
    /// Denomination.
    pub unit: Unit,
    /// Where the family is emitted from.
    pub site: &'static str,
    /// One-line description.
    pub help: &'static str,
}

use MetricKind::{Counter, Gauge, Histogram, Series};

/// Every individually-named metric, in name order.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        name: "agg.rejected",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest reject, baselines fedavg/hierfavg",
        help: "updates refused by the validation gate (all causes)",
    },
    CatalogEntry {
        name: "agg.rejected.nonfinite",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest admit, baselines fedavg/hierfavg",
        help: "updates rejected for NaN/Inf parameters or age",
    },
    CatalogEntry {
        name: "agg.rejected.norm",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest admit, baselines fedavg",
        help: "updates rejected for an exploded delta norm",
    },
    CatalogEntry {
        name: "agg.rejected.peer",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest admit_peer (spyker, sync-spyker, cluster)",
        help: "peer server models skipped at merge: non-finite, wrong dimension or unknown center",
    },
    CatalogEntry {
        name: "agg.rejected.stale",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest admit, baselines fedavg",
        help: "updates rejected for exceeding the staleness bound",
    },
    CatalogEntry {
        name: "agg.robust.flushes",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest client_update, baselines fedavg",
        help: "robust-aggregation batch flushes folded into the model",
    },
    CatalogEntry {
        name: "agg.staleness",
        kind: Histogram,
        unit: Unit::Value,
        site: "core ingest admit",
        help: "staleness (server age minus update age) of accepted updates",
    },
    CatalogEntry {
        name: "bytes.client-server",
        kind: Series,
        unit: Unit::Bytes,
        site: "experiments runner probe",
        help: "cumulative client-server bytes over time",
    },
    CatalogEntry {
        name: "bytes.server-server",
        kind: Series,
        unit: Unit::Bytes,
        site: "experiments runner probe",
        help: "cumulative server-server bytes over time",
    },
    CatalogEntry {
        name: "bytes.total",
        kind: Series,
        unit: Unit::Bytes,
        site: "experiments runner probe",
        help: "cumulative total bytes over time",
    },
    CatalogEntry {
        name: "client.repoked",
        kind: Counter,
        unit: Unit::Count,
        site: "core server on_client_watchdog",
        help: "silent clients re-sent the model by the liveness watchdog",
    },
    CatalogEntry {
        name: "cloud.rounds",
        kind: Counter,
        unit: Unit::Count,
        site: "baselines hierfavg",
        help: "HierFAVG cloud aggregation rounds",
    },
    CatalogEntry {
        name: "cluster.merge_deferred",
        kind: Counter,
        unit: Unit::Count,
        site: "core cluster",
        help: "cluster merges deferred to a later exchange",
    },
    CatalogEntry {
        name: "codec.compression_ratio",
        kind: Gauge,
        unit: Unit::Value,
        site: "core client encoder",
        help: "cumulative raw-over-encoded byte ratio of the update codec",
    },
    CatalogEntry {
        name: "codec.decode_error",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest decode",
        help: "encoded updates dropped as structurally undecodable",
    },
    CatalogEntry {
        name: "codec.decoded",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest decode",
        help: "encoded client updates decoded ahead of the validation gate",
    },
    CatalogEntry {
        name: "codec.ref_miss",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest decode",
        help: "delta-coded updates dropped (and answered) for naming a model the server no longer remembers sending",
    },
    CatalogEntry {
        name: "fault.byzantine",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages corrupted in flight by Byzantine senders (all attacks)",
    },
    CatalogEntry {
        name: "fault.byzantine.nan",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages hit by the NaN-injection attack",
    },
    CatalogEntry {
        name: "fault.byzantine.noise",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages hit by the Gaussian-noise attack",
    },
    CatalogEntry {
        name: "fault.byzantine.scale",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages hit by the scaling attack",
    },
    CatalogEntry {
        name: "fault.byzantine.signflip",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages hit by the sign-flip attack",
    },
    CatalogEntry {
        name: "fault.conn.drop",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport tcp",
        help: "connection drops (fault window opened or TCP peer lost)",
    },
    CatalogEntry {
        name: "fault.conn.restore",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport tcp",
        help: "connection restorations (fault window closed or TCP peer back)",
    },
    CatalogEntry {
        name: "fault.crashes",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des",
        help: "fault-injected node crashes",
    },
    CatalogEntry {
        name: "fault.discarded",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des",
        help: "events discarded because the target node was down",
    },
    CatalogEntry {
        name: "fault.dropped",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages eaten by the fault plan (all causes)",
    },
    CatalogEntry {
        name: "fault.dropped.conn",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages dropped on a severed connection",
    },
    CatalogEntry {
        name: "fault.dropped.loss",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages dropped by probabilistic loss",
    },
    CatalogEntry {
        name: "fault.dropped.partition",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages dropped crossing an active partition",
    },
    CatalogEntry {
        name: "fault.dropped.scripted",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages dropped by a scripted drop rule",
    },
    CatalogEntry {
        name: "fault.partitions",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des",
        help: "partition windows in the fault plan",
    },
    CatalogEntry {
        name: "fault.restarts",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des",
        help: "fault-injected node restarts",
    },
    CatalogEntry {
        name: "membership.adoptions",
        kind: Counter,
        unit: Unit::Count,
        site: "core server adopt_client",
        help: "walk-in clients adopted (re-homed, failed over, redirected)",
    },
    CatalogEntry {
        name: "membership.client_failovers",
        kind: Counter,
        unit: Unit::Count,
        site: "core client on_timer",
        help: "clients that re-homed themselves after server silence",
    },
    CatalogEntry {
        name: "membership.client_rehomes",
        kind: Counter,
        unit: Unit::Count,
        site: "core client on_message",
        help: "Rehome orders from departing servers followed by clients",
    },
    CatalogEntry {
        name: "membership.epoch",
        kind: Gauge,
        unit: Unit::Value,
        site: "core membership",
        help: "highest ring epoch adopted by any server",
    },
    CatalogEntry {
        name: "membership.evictions",
        kind: Counter,
        unit: Unit::Count,
        site: "core membership note_miss",
        help: "unresponsive servers evicted after the exchange-miss budget",
    },
    CatalogEntry {
        name: "membership.joins",
        kind: Counter,
        unit: Unit::Count,
        site: "core membership on_join_request",
        help: "servers spliced into the ring by a sponsor",
    },
    CatalogEntry {
        name: "membership.late",
        kind: Counter,
        unit: Unit::Count,
        site: "core membership route",
        help: "messages dropped as stale for the receiver's membership phase",
    },
    CatalogEntry {
        name: "membership.leaves",
        kind: Counter,
        unit: Unit::Count,
        site: "core membership begin_leave",
        help: "voluntary leaves (token handoff + client re-homing + drain)",
    },
    CatalogEntry {
        name: "membership.redirected",
        kind: Counter,
        unit: Unit::Count,
        site: "core membership route (draining)",
        help: "in-flight client updates redirected by a draining server",
    },
    CatalogEntry {
        name: "membership.ring_size",
        kind: Gauge,
        unit: Unit::Count,
        site: "core membership",
        help: "live servers on the ring in the current epoch",
    },
    CatalogEntry {
        name: "membership.stale_slot",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange/sync_spyker/cluster",
        help: "frames naming a retired or never-spliced ring slot, dropped",
    },
    CatalogEntry {
        name: "membership.stand_downs",
        kind: Counter,
        unit: Unit::Count,
        site: "core membership stand_down",
        help: "live servers that found themselves evicted and went standby",
    },
    CatalogEntry {
        name: "metric",
        kind: Series,
        unit: Unit::Value,
        site: "experiments runner probe",
        help: "task metric (accuracy/perplexity) over virtual time",
    },
    CatalogEntry {
        name: "net.bytes",
        kind: Counter,
        unit: Unit::Bytes,
        site: "simnet des, transport",
        help: "bytes put on the wire (drops included)",
    },
    CatalogEntry {
        name: "net.bytes.client-server",
        kind: Counter,
        unit: Unit::Bytes,
        site: "simnet des, transport",
        help: "bytes of client-server traffic",
    },
    CatalogEntry {
        name: "net.bytes.encoded",
        kind: Counter,
        unit: Unit::Bytes,
        site: "core client encoder",
        help: "bytes of codec-compressed update frames actually sent",
    },
    CatalogEntry {
        name: "net.bytes.raw",
        kind: Counter,
        unit: Unit::Bytes,
        site: "core client encoder",
        help: "bytes the same updates would have cost sent dense",
    },
    CatalogEntry {
        name: "net.bytes.saved",
        kind: Counter,
        unit: Unit::Bytes,
        site: "core client encoder",
        help: "wire bytes saved by the update codec (raw minus encoded)",
    },
    CatalogEntry {
        name: "net.bytes.server-server",
        kind: Counter,
        unit: Unit::Bytes,
        site: "simnet des, transport",
        help: "bytes of server-server traffic",
    },
    CatalogEntry {
        name: "net.conn.accepted",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp acceptor",
        help: "inbound TCP connections accepted after a valid hello",
    },
    CatalogEntry {
        name: "net.conn.dialed",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp dialer",
        help: "outbound TCP connections established",
    },
    CatalogEntry {
        name: "net.conn.dropped",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp",
        help: "established TCP connections severed (EOF, error, liveness)",
    },
    CatalogEntry {
        name: "net.conn.ondemand",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp",
        help: "dialers started lazily for peers that did not exist at startup",
    },
    CatalogEntry {
        name: "net.conn.retries",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp dialer",
        help: "failed dial attempts (each followed by backoff)",
    },
    CatalogEntry {
        name: "net.frames.corrupt",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp reader",
        help: "frames rejected as malformed (bad envelope, decode error, desync)",
    },
    CatalogEntry {
        name: "net.frames.recv",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp reader",
        help: "length-delimited frames received",
    },
    CatalogEntry {
        name: "net.frames.sent",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp sender, writer",
        help: "length-delimited frames written to a socket",
    },
    CatalogEntry {
        name: "net.heartbeats",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp writer",
        help: "pings sent on idle connections to prove liveness",
    },
    CatalogEntry {
        name: "net.messages",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet des, transport",
        help: "messages put on the wire",
    },
    CatalogEntry {
        name: "net.queue.shed",
        kind: Counter,
        unit: Unit::Count,
        site: "transport tcp",
        help: "messages shed by a full bounded peer queue: bulk at once, control after the liveness timeout",
    },
    CatalogEntry {
        name: "net.unexpected",
        kind: Counter,
        unit: Unit::Count,
        site: "core actors",
        help: "well-formed but protocol-unexpected messages dropped",
    },
    CatalogEntry {
        name: "queue.max",
        kind: Series,
        unit: Unit::Count,
        site: "experiments runner probe",
        help: "largest server inbox depth over time",
    },
    CatalogEntry {
        name: "rounds",
        kind: Counter,
        unit: Unit::Count,
        site: "baselines fedavg/hierfavg",
        help: "synchronous aggregation rounds completed",
    },
    CatalogEntry {
        name: "scale.down",
        kind: Counter,
        unit: Unit::Count,
        site: "obs-aware autoscaler",
        help: "ScaleDown orders sent to drain the last-activated server",
    },
    CatalogEntry {
        name: "scale.holds",
        kind: Counter,
        unit: Unit::Count,
        site: "obs-aware autoscaler",
        help: "autoscaler ticks that held (cooldown, floor, dry pool, blind)",
    },
    CatalogEntry {
        name: "scale.pressure",
        kind: Gauge,
        unit: Unit::Value,
        site: "obs-aware autoscaler",
        help: "observed clients per server over the configured target",
    },
    CatalogEntry {
        name: "scale.up",
        kind: Counter,
        unit: Unit::Count,
        site: "obs-aware autoscaler",
        help: "ScaleUp orders sent to activate a standby server",
    },
    CatalogEntry {
        name: "scenario.preset",
        kind: Gauge,
        unit: Unit::Value,
        site: "simtest scenario builder",
        help: "scenario-library preset index the run was expanded from (-1 if unknown)",
    },
    CatalogEntry {
        name: "server.aggs",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange/sync_spyker/cluster",
        help: "peer models merged during exchanges",
    },
    CatalogEntry {
        name: "server.restarts",
        kind: Counter,
        unit: Unit::Count,
        site: "core server/cluster on_restart",
        help: "server rejoin procedures after a crash",
    },
    CatalogEntry {
        name: "sim.availability.discarded",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet DES",
        help: "events discarded because their node was inside an offline window",
    },
    CatalogEntry {
        name: "sim.availability.offline",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet DES",
        help: "node transitions into an availability offline window",
    },
    CatalogEntry {
        name: "sim.availability.online",
        kind: Counter,
        unit: Unit::Count,
        site: "simnet DES",
        help: "node transitions back online at the end of an offline window",
    },
    CatalogEntry {
        name: "sim.cohort.clients",
        kind: Gauge,
        unit: Unit::Value,
        site: "simtest scale runner",
        help: "logical clients represented by cohort actors in a scale run",
    },
    CatalogEntry {
        name: "sim.cohort.train_shared",
        kind: Counter,
        unit: Unit::Count,
        site: "core cohort client",
        help: "training computations shared by cohort members instead of re-run",
    },
    CatalogEntry {
        name: "sim.events_per_sec",
        kind: Gauge,
        unit: Unit::Value,
        site: "simtest scale runner",
        help: "wall-clock event throughput of the last completed run",
    },
    CatalogEntry {
        name: "sim.flows.active",
        kind: Gauge,
        unit: Unit::Value,
        site: "simnet flow-shared links",
        help: "in-flight flows across all region trunks",
    },
    CatalogEntry {
        name: "sim.peak_rss_bytes",
        kind: Gauge,
        unit: Unit::Bytes,
        site: "simtest scale runner",
        help: "peak resident set size of the process after a scale run",
    },
    CatalogEntry {
        name: "sync.degraded",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange on_exchange_timeout",
        help: "exchanges completed without every peer's model",
    },
    CatalogEntry {
        name: "sync.superseded",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange on_token",
        help: "open exchanges closed by an overtaking token",
    },
    CatalogEntry {
        name: "sync.token_holder",
        kind: Gauge,
        unit: Unit::Value,
        site: "core exchange on_token",
        help: "server index that last received the token",
    },
    CatalogEntry {
        name: "syncs.triggered",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange/sync_spyker/cluster",
        help: "server-server exchanges triggered",
    },
    CatalogEntry {
        name: "token.forward_spurious",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange forward_token",
        help: "token forwards attempted while not holding the token",
    },
    CatalogEntry {
        name: "token.regenerated",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange on_token_watchdog",
        help: "tokens regenerated after presumed loss",
    },
    CatalogEntry {
        name: "token.stale_dropped",
        kind: Counter,
        unit: Unit::Count,
        site: "core exchange on_token",
        help: "stale token copies dropped after a regeneration",
    },
    CatalogEntry {
        name: "updates.processed",
        kind: Counter,
        unit: Unit::Count,
        site: "core ingest complete, baselines fedavg/hierfavg",
        help: "client updates integrated into a server model",
    },
    CatalogEntry {
        name: "updates.sent",
        kind: Counter,
        unit: Unit::Count,
        site: "core client",
        help: "updates sent by clients after local training",
    },
];

/// Prefix families with instance-specific suffixes.
pub const FAMILIES: &[FamilyEntry] = &[
    FamilyEntry {
        prefix: "net.bytes.",
        kind: Counter,
        unit: Unit::Bytes,
        site: "simnet des, transport",
        help: "bytes by message kind (WireSize::kind)",
    },
    FamilyEntry {
        prefix: "queue.s",
        kind: Series,
        unit: Unit::Count,
        site: "experiments runner probe",
        help: "per-server inbox depth over time",
    },
    FamilyEntry {
        prefix: "scale.load.s",
        kind: Gauge,
        unit: Unit::Count,
        site: "core server membership",
        help: "clients currently homed at the server holding each ring slot",
    },
];

/// Looks `name` up in [`CATALOG`] (exact match).
pub fn lookup(name: &str) -> Option<&'static CatalogEntry> {
    CATALOG
        .binary_search_by(|e| e.name.cmp(name))
        .ok()
        .map(|i| &CATALOG[i])
}

/// The family `name` belongs to, if any (exact catalog entries win; only
/// consult this after [`lookup`] missed).
pub fn family_for(name: &str) -> Option<&'static FamilyEntry> {
    FAMILIES
        .iter()
        .find(|f| name.starts_with(f.prefix) && name.len() > f.prefix.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_duplicate_free() {
        for pair in CATALOG.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "catalog out of order or duplicated at {}",
                pair[1].name
            );
        }
    }

    #[test]
    fn lookup_hits_every_entry_and_misses_strangers() {
        for e in CATALOG {
            assert_eq!(lookup(e.name).unwrap().name, e.name);
        }
        assert!(lookup("no.such.metric").is_none());
    }

    #[test]
    fn families_match_suffixed_names_only() {
        assert_eq!(family_for("queue.s3").unwrap().prefix, "queue.s");
        assert_eq!(family_for("net.bytes.token").unwrap().prefix, "net.bytes.");
        assert!(
            family_for("queue.s").is_none(),
            "bare prefix is not a member"
        );
        assert!(family_for("metric").is_none());
    }
}
