//! The four benchmark workloads.
//!
//! Each workload module exposes the same three functions: `reference`
//! (an untimed warm-up that doubles as the expected output, where the
//! repository offers an independent way to compute it), `rep` (one timed
//! repetition, optionally traced) and `DIM` (the model dimension its unit
//! costs are measured at). A repetition builds its whole deployment from
//! the seed, runs it, and checks its own outputs.

pub mod des_bigmodel;
pub mod des_scale;
pub mod des_train;
pub mod tcp_loopback;

use spyker_simnet::Metrics;

use crate::trace::Span;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-shaped training run: 4 servers, 100 clients, real MLP training.
    DesTrain,
    /// 100 000 logical clients under the per-event oracle suite.
    DesScale,
    /// 65 536-dim model through the update codec and the robust buffer.
    DesBigmodel,
    /// Real sockets: 2 servers + 8 clients on loopback.
    TcpLoopback,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::DesTrain,
        Workload::DesScale,
        Workload::DesBigmodel,
        Workload::TcpLoopback,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesTrain => "des_train_4s100c",
            Workload::DesScale => "des_scale_100k",
            Workload::DesBigmodel => "des_bigmodel_codec",
            Workload::TcpLoopback => "tcp_loopback_2s8c",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when a repetition is a pure function of the seed, so event
    /// and update counts must repeat exactly.
    pub fn deterministic(self) -> bool {
        self != Workload::TcpLoopback
    }

    /// Model dimension of the workload (its unit costs are measured here).
    pub fn dim(self) -> usize {
        match self {
            Workload::DesTrain => des_train::DIM,
            Workload::DesScale => des_scale::DIM,
            Workload::DesBigmodel => des_bigmodel::DIM,
            Workload::TcpLoopback => tcp_loopback::DIM,
        }
    }

    /// The untimed warm-up. Where the repository can compute the
    /// workload's result through an independent code path, this is that
    /// path and its result is what every repetition must reproduce.
    pub fn reference(self, seed: u64, rep_seconds: f64) -> Option<Reference> {
        match self {
            Workload::DesTrain => Some(des_train::reference(seed)),
            Workload::DesScale => Some(des_scale::reference(seed)),
            Workload::DesBigmodel => {
                des_bigmodel::rep(seed, false);
                None
            }
            Workload::TcpLoopback => {
                tcp_loopback::rep(seed, false, (rep_seconds / 4.0).min(0.5));
                None
            }
        }
    }

    /// One repetition. `rep_seconds` is the length of the timed section
    /// where the workload runs for a fixed wall time (TCP); the DES
    /// workloads run a fixed virtual horizon and ignore it.
    pub fn rep(self, seed: u64, traced: bool, rep_seconds: f64) -> Rep {
        match self {
            Workload::DesTrain => des_train::rep(seed, traced),
            Workload::DesScale => des_scale::rep(seed, traced),
            Workload::DesBigmodel => des_bigmodel::rep(seed, traced),
            // Never shorter than a second: a p99 needs its 1 000 round trips.
            Workload::TcpLoopback => tcp_loopback::rep(seed, traced, rep_seconds.max(1.0)),
        }
    }
}

/// What an independent code path says a repetition must produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// `updates.processed` at the end of the run.
    pub updates_processed: u64,
    /// Events processed, when the reference path reports them.
    pub events: Option<u64>,
    /// Final quality metric, when the workload has one.
    pub quality: Option<f64>,
}

/// Everything one repetition measured.
pub struct Rep {
    /// Wall seconds from the start of the repetition until the timed
    /// section began (inputs, actors, sockets).
    pub setup_s: f64,
    /// Named parts of the set-up (`<layer>.<what>_s`), for the ledger.
    pub setup_parts: Vec<(&'static str, f64)>,
    /// Wall seconds of the timed section.
    pub wall_s: f64,
    /// Events the run loop processed (DES) or handlers it ran (TCP).
    pub events: u64,
    /// Final quality metric (held-out accuracy), if the workload has one.
    pub quality: Option<f64>,
    /// Wall seconds into the timed section at which the quality target
    /// was first met, if the workload has one.
    pub time_to_target_s: Option<f64>,
    /// Client-observed update round trips in milliseconds, ascending
    /// (TCP only).
    pub rtt_ms: Vec<f64>,
    /// The run's metrics, merged over all nodes.
    pub metrics: Metrics,
    /// Output checks this repetition violated (empty = correct).
    pub problems: Vec<String>,
    /// One span list per thread (traced repetitions only).
    pub spans: Vec<Vec<Span>>,
}

/// Counters whose every increment is a failed operation.
const FAILURE_COUNTERS: [&str; 4] = [
    "agg.rejected",
    "codec.decode_error",
    "net.queue.shed",
    "net.frames.corrupt",
];

impl Rep {
    /// `updates.sent`: the operations this repetition attempted.
    pub fn attempted(&self) -> u64 {
        self.metrics.counter("updates.sent")
    }

    /// `updates.processed`, summed over servers.
    pub fn updates_processed(&self) -> u64 {
        self.metrics.counter("updates.processed")
    }

    /// Operations the run's own counters report as failed: rejected,
    /// undecodable, shed, corrupted or dropped messages.
    pub fn failed(&self) -> u64 {
        let dropped: u64 = self
            .metrics
            .counters()
            .filter(|(name, _)| name.starts_with("fault.dropped."))
            .map(|(_, v)| v)
            .sum();
        dropped
            + FAILURE_COUNTERS
                .iter()
                .map(|c| self.metrics.counter(c))
                .sum::<u64>()
    }
}
