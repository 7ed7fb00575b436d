//! The per-layer ledger: every `per_layer` metric of `BENCHMARK.json`,
//! derived from the traced repetition's spans, the run's metric counters
//! and the unit costs. Times are self times (see [`crate::trace`]).
//!
//! Every metric is reported on every workload; a layer that is not on a
//! workload's path reads 0 there (no `transport.*` time in a DES run, no
//! `simtest.*` outside the scale run).

use crate::micro::UnitCost;
use crate::stats::{median, percentile};
use crate::trace::{by_name, Name, NameStats};
use crate::workloads::{Rep, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn pct(stats: &NameStats, p: f64) -> f64 {
    if stats.durs_us.is_empty() {
        0.0
    } else {
        percentile(&stats.durs_us, p)
    }
}

/// Median over the untraced repetitions of `f`, or 0 when `f` has no
/// value on this workload.
fn untraced_median(untraced: &[Rep], f: impl Fn(&Rep) -> Option<f64>) -> f64 {
    let values: Vec<f64> = untraced.iter().filter_map(f).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// Builds the ledger for one workload from its untraced repetitions, its
/// traced repetition, the unit costs measured at its dimension, and the
/// share by which tracing slowed the workload down.
pub fn ledger(
    workload: Workload,
    untraced: &[Rep],
    traced: &Rep,
    unit_costs: &[UnitCost],
    trace_overhead_share: f64,
) -> Vec<Metric> {
    let stats = by_name(&traced.spans);
    let of = |name: Name| &stats[name as usize];
    let tcp = workload == Workload::TcpLoopback;
    let counter = |name: &str| traced.metrics.counter(name) as f64;
    let mut out = Vec::new();
    let mut put = |name, unit, value| out.push(Metric { name, unit, value });

    for &(name, unit, value) in unit_costs {
        put(name, unit, value);
    }

    put("models.train_busy_s", "s", of(Name::Train).self_s);
    put("models.train_calls", "count", of(Name::Train).calls as f64);
    put("models.train_call_p50_us", "us", pct(of(Name::Train), 0.5));
    put("models.eval_busy_s", "s", of(Name::Eval).self_s);
    put("models.eval_calls", "count", of(Name::Eval).calls as f64);

    put("core.server_busy_s", "s", of(Name::Server).self_s);
    put("core.server_calls", "count", of(Name::Server).calls as f64);
    put("core.server_call_p50_us", "us", pct(of(Name::Server), 0.5));
    put("core.server_call_p99_us", "us", pct(of(Name::Server), 0.99));
    put("core.client_busy_s", "s", of(Name::Client).self_s);
    put("core.client_calls", "count", of(Name::Client).calls as f64);
    put("core.updates_sent", "count", counter("updates.sent"));
    put(
        "core.updates_processed",
        "count",
        counter("updates.processed"),
    );
    put("core.updates_rejected", "count", counter("agg.rejected"));
    put(
        "core.useful_update_ratio",
        "ratio",
        ratio(counter("updates.processed"), counter("updates.sent")),
    );
    put("core.exchanges", "count", counter("syncs.triggered"));
    put(
        "core.robust_flushes",
        "count",
        counter("agg.robust.flushes"),
    );
    put("core.bytes_raw", "bytes", counter("net.bytes.raw"));
    put("core.bytes_encoded", "bytes", counter("net.bytes.encoded"));

    // The run loop and the effects a handler issues belong to `simnet` in
    // a DES run and to `transport` over TCP.
    let des = |v: f64| if tcp { 0.0 } else { v };
    let net = |v: f64| if tcp { v } else { 0.0 };
    let loop_self = of(Name::Loop).self_s;
    let env_self = of(Name::Send).self_s + of(Name::Timer).self_s + of(Name::Busy).self_s;
    let events = traced.events as f64;
    put("simnet.events", "count", des(events));
    put("simnet.loop_self_s", "s", des(loop_self));
    put(
        "simnet.loop_ns_per_event",
        "ns",
        des(ratio(loop_self * 1e9, events)),
    );
    put("simnet.env_busy_s", "s", des(env_self));
    put(
        "simnet.env_send_calls",
        "count",
        des(of(Name::Send).calls as f64),
    );
    put(
        "simnet.env_timer_calls",
        "count",
        des(of(Name::Timer).calls as f64),
    );

    put("obs.metric_busy_s", "s", of(Name::Metric).self_s);
    put("obs.metric_calls", "count", of(Name::Metric).calls as f64);

    put("simtest.oracle_busy_s", "s", of(Name::Oracle).self_s);
    put(
        "simtest.oracle_checks",
        "count",
        of(Name::Oracle).calls as f64,
    );
    put(
        "simtest.oracle_ns_per_event",
        "ns",
        ratio(of(Name::Oracle).self_s * 1e9, events),
    );

    let send = of(Name::Send);
    put("transport.send_busy_s", "s", net(send.self_s));
    put("transport.send_calls", "count", net(send.calls as f64));
    put("transport.send_p99_us", "us", net(pct(send, 0.99)));
    // Share of the node threads' timed window not spent in a handler
    // (waiting on the inbox, plus dispatch). The loop spans also cover
    // `connect_grace` and the drain, where no handler runs, so handler
    // time is their total minus their self time.
    let loop_total = of(Name::Loop).durs_us.iter().sum::<f64>() * 1e-6;
    let node_window = traced.spans.len() as f64 * traced.wall_s;
    put(
        "transport.loop_idle_share",
        "ratio",
        net(1.0 - ratio(loop_total - loop_self, node_window)),
    );
    put("transport.frames_sent", "count", counter("net.frames.sent"));
    put("transport.bytes_sent", "bytes", net(counter("net.bytes")));
    put("transport.queue_shed", "count", counter("net.queue.shed"));
    put(
        "transport.conn_retries",
        "count",
        counter("net.conn.retries"),
    );
    put("transport.heartbeats", "count", counter("net.heartbeats"));
    let part = |name: &str| {
        untraced_median(untraced, |r| {
            r.setup_parts.iter().find(|(n, _)| *n == name).map(|p| p.1)
        })
    };
    put("transport.connect_s", "s", part("transport.connect_s"));
    put(
        "transport.update_rtt_p50_ms",
        "ms",
        untraced_median(untraced, |r| {
            (!r.rtt_ms.is_empty()).then(|| percentile(&r.rtt_ms, 0.5))
        }),
    );
    put(
        "transport.update_rtt_p99_ms",
        "ms",
        untraced_median(untraced, |r| {
            (!r.rtt_ms.is_empty()).then(|| percentile(&r.rtt_ms, 0.99))
        }),
    );

    put(
        "experiments.scenario_build_s",
        "s",
        part("experiments.scenario_build_s"),
    );
    put("experiments.probe_busy_s", "s", of(Name::Probe).self_s);
    put(
        "experiments.time_to_target_s",
        "s",
        untraced_median(untraced, |r| r.time_to_target_s),
    );

    put("bench.trace_overhead_share", "ratio", trace_overhead_share);
    out
}

/// The three layer rows with the most self time, `(name, seconds, share of
/// all self time)`, for the human-readable report.
pub fn top_layers(metrics: &[Metric]) -> Vec<(&'static str, f64, f64)> {
    let mut rows: Vec<(&'static str, f64)> = metrics
        .iter()
        .filter(|m| m.name.ends_with("_busy_s") || m.name.ends_with("loop_self_s"))
        .map(|m| (m.name, m.value))
        .collect();
    let total: f64 = rows.iter().map(|r| r.1).sum();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.truncate(3);
    rows.into_iter()
        .map(|(name, s)| (name, s, ratio(s, total)))
        .collect()
}
