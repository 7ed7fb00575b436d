//! Protocol invariants of live deployments on the TCP transport: every
//! node runs on its own OS thread, with localhost sockets in between.
//! Recovery stays off, so no watchdog may regenerate a token.

mod common;

use spyker_repro::core::config::SpykerConfig;
use spyker_repro::core::server::SpykerServer;
use spyker_repro::transport::tcp::TcpReport;

use common::run_deployment;

fn run_live(num_clients: usize, num_servers: usize, secs: u64) -> Vec<TcpReport> {
    let cfg = SpykerConfig::paper_defaults(num_clients, num_servers).with_thresholds(2.0, 25.0);
    run_deployment(num_servers, num_clients, secs, cfg)
}

fn server(report: &TcpReport) -> &SpykerServer {
    report
        .node
        .as_any()
        .downcast_ref::<SpykerServer>()
        .expect("server")
}

#[test]
fn spyker_converges_on_real_threads() {
    let reports = run_live(8, 2, 3);
    let processed: u64 = reports[..2]
        .iter()
        .map(|r| r.metrics.counter("updates.processed"))
        .sum();
    assert!(processed > 50, "too few updates: {processed}");
    // Targets are 0..3 repeating; global mean is 1.5. Real threads are
    // non-deterministic, so just require a sane compromise.
    for (id, report) in reports[..2].iter().enumerate() {
        let server = server(report);
        let v = server.params().as_slice()[0];
        assert!(v > 0.3 && v < 2.7, "server {id} model off at {v}");
        assert!(server.age() > 0.0, "server {id} model never aged");
    }
}

#[test]
fn live_token_is_never_duplicated() {
    let reports = run_live(6, 3, 4);
    let holders = reports[..3]
        .iter()
        .filter(|r| server(r).has_token())
        .count();
    assert!(holders <= 1, "token duplicated across {holders} servers");
    let aggs: u64 = reports[..3]
        .iter()
        .map(|r| r.metrics.counter("server.aggs"))
        .sum();
    assert!(aggs > 0, "no exchanges happened");
}

#[test]
fn live_metrics_track_traffic_by_kind() {
    let reports = run_live(4, 2, 2);
    let mut cs_total = 0;
    for (id, report) in reports.iter().enumerate() {
        let m = &report.metrics;
        let cs = m.counter("net.bytes.client-server");
        let ss = m.counter("net.bytes.server-server");
        assert_eq!(
            m.counter("net.bytes"),
            cs + ss,
            "node {id} bytes do not split by kind"
        );
        cs_total += cs;
    }
    assert!(cs_total > 0, "no client-server traffic");
}
