//! Scalability runs: 10⁵–10⁶ *logical* clients under the full oracle
//! suite.
//!
//! A scale run represents its client population with
//! [`CohortClient`](spyker_core::cohort::CohortClient) actors: every
//! cohort is one protocol actor standing for `cohort_size` homogeneous
//! clients (same trainer shape, same epochs, no scripted faults — exactly
//! the profile of a scalability sweep's population). 100k logical clients
//! at the default cohort size of 128 is ~780 actors plus the servers —
//! small enough to run under the per-event oracle suite inside the CI time
//! cap, while the timer wheel and flat per-link state keep the event loop
//! itself O(1) per event.
//!
//! The runner stamps three run-level gauges on the simulation's metrics
//! after the run (wall-world measurements, outside the deterministic
//! event path): `sim.cohort.clients`, `sim.events_per_sec` and
//! `sim.peak_rss_bytes`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spyker_core::client::FlClient;
use spyker_core::cohort::CohortClient;
use spyker_core::config::SpykerConfig;
use spyker_core::deploy::{clients_of_servers, even_assignment, server_region};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::training::MeanTargetTrainer;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{peak_rss_bytes, NetworkConfig, NodeId, SchedulerKind, SimTime, Simulation};

use crate::driver::{Deployment, OracleDriver};
use crate::harness::Violation;
use crate::oracle::default_suite;

/// Parameters of one scalability run.
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// Seeds the jitter RNG and the cohort target/delay draws.
    pub seed: u64,
    /// Number of Spyker servers (node ids `0..n_servers`).
    pub n_servers: usize,
    /// Logical client population the run stands for.
    pub logical_clients: u64,
    /// Clients per cohort actor (the last cohort takes the remainder).
    pub cohort_size: u64,
    /// Model dimension of the linear (mean-target) task.
    pub dim: usize,
    /// Virtual-time budget of the run.
    pub horizon: SimTime,
    /// Event-queue implementation to run on.
    pub scheduler: SchedulerKind,
    /// `true` routes traffic through the flow-level shared-bandwidth
    /// links instead of the per-message serialization model.
    pub flow_links: bool,
    /// Optional update-compression pipeline every cohort encodes with
    /// (DESIGN.md §16); enables the codec byte-ledger oracle.
    pub codec: Option<CodecConfig>,
}

impl ScaleSpec {
    /// The defaults the CI smoke uses: 100k logical clients in cohorts of
    /// 128 on 4 servers, 60 virtual seconds, timer wheel, flow links.
    pub fn ci_smoke() -> Self {
        Self {
            seed: 7,
            n_servers: 4,
            logical_clients: 100_000,
            cohort_size: 128,
            dim: 8,
            horizon: SimTime::from_secs(60),
            scheduler: SchedulerKind::Wheel,
            flow_links: true,
            codec: None,
        }
    }

    /// Number of cohort actors this spec expands to.
    pub fn n_cohorts(&self) -> usize {
        usize::try_from(self.logical_clients.div_ceil(self.cohort_size.max(1)))
            .expect("cohort count fits usize")
    }
}

/// What a scalability run produced.
#[derive(Debug, Clone)]
pub struct ScaleStats {
    /// Logical clients represented.
    pub logical_clients: u64,
    /// Cohort actors that represented them.
    pub actors: usize,
    /// Events processed.
    pub events: u64,
    /// Virtual time the run ended at.
    pub end_time: SimTime,
    /// `updates.processed` at the end of the run.
    pub updates_processed: u64,
    /// Wall-clock event throughput.
    pub events_per_sec: f64,
    /// Peak RSS of the process, if procfs is available.
    pub peak_rss_bytes: Option<u64>,
    /// First oracle violation, if any ([`None`] means oracle-green).
    pub violation: Option<Violation>,
}

/// Builds the cohort deployment: servers at ids `0..n_servers` (one per
/// region, round-robin), one [`CohortClient`] per cohort co-located with
/// its server. Returns the simulation plus the per-cohort targets (the
/// model-hull oracle's hull).
pub fn build_scale(spec: &ScaleSpec) -> (Simulation<FlMsg>, Vec<f32>) {
    assert!(spec.n_servers > 0, "need at least one server");
    assert!(spec.logical_clients > 0, "need at least one client");
    let n_cohorts = spec.n_cohorts();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5ca1_e000_0000_0001);
    let targets: Vec<f32> = (0..n_cohorts)
        .map(|_| rng.gen_range(-1.0..=1.0f32))
        .collect();
    let delays: Vec<SimTime> = (0..n_cohorts)
        .map(|_| SimTime::from_millis(rng.gen_range(50..=500u64)))
        .collect();

    let mut net = NetworkConfig::aws();
    if spec.flow_links {
        net = net.with_flow_shared_links();
    }
    let mut sim = Simulation::new(net, spec.seed).with_scheduler(spec.scheduler);

    let mut config = SpykerConfig::paper_defaults(n_cohorts, spec.n_servers);
    if let Some(codec) = spec.codec {
        config = config.with_codec(codec);
    }
    let init = ParamVec::zeros(spec.dim);
    let assignment = even_assignment(n_cohorts, spec.n_servers);
    let server_nodes: Vec<NodeId> = (0..spec.n_servers).collect();
    let clients_of = clients_of_servers(&assignment, spec.n_servers);
    for (i, clients) in clients_of.iter().enumerate() {
        sim.add_node(
            Box::new(SpykerServer::new(
                i,
                server_nodes.clone(),
                clients.clone(),
                init.clone(),
                config.clone(),
            )),
            server_region(i),
        );
    }
    let mut remaining = spec.logical_clients;
    for i in 0..n_cohorts {
        let size = remaining.min(spec.cohort_size);
        remaining -= size;
        let trainer = Box::new(MeanTargetTrainer::new(vec![targets[i]; spec.dim], 8));
        let mut client = FlClient::new(assignment[i], trainer, config.client_epochs, delays[i]);
        if let Some(codec) = spec.codec {
            client = client.with_update_codec(codec);
        }
        sim.add_node(
            Box::new(CohortClient::new(client, size)),
            server_region(assignment[i]),
        );
    }
    debug_assert_eq!(remaining, 0);
    (sim, targets)
}

/// Runs `spec` under the full oracle suite (capped at `budget_events`),
/// stamps the run-level gauges, and returns the stats.
pub fn run_scale(spec: &ScaleSpec, budget_events: u64) -> ScaleStats {
    let (mut sim, targets) = build_scale(spec);
    let deployment = Deployment {
        server_ids: (0..spec.n_servers).collect(),
        n_clients: spec.n_cohorts(),
        clean: true,
        byzantine_free: true,
        targets: &targets,
        codec: spec.codec,
    };
    let mut tap = OracleDriver::new(deployment, default_suite(), budget_events);
    let wall = Instant::now();
    sim.run_with_tap(spec.horizon, &mut tap);
    let elapsed = wall.elapsed().as_secs_f64().max(1e-9);
    tap.finish(&sim);

    let events_per_sec = tap.events as f64 / elapsed;
    let rss = peak_rss_bytes();
    let m = sim.metrics_mut();
    m.gauge_set("sim.cohort.clients", spec.logical_clients as f64);
    m.gauge_set("sim.events_per_sec", events_per_sec);
    if let Some(rss) = rss {
        m.gauge_set("sim.peak_rss_bytes", rss as f64);
    }
    ScaleStats {
        logical_clients: spec.logical_clients,
        actors: spec.n_cohorts(),
        events: tap.events,
        end_time: sim.now(),
        updates_processed: sim.metrics().counter("updates.processed"),
        events_per_sec,
        peak_rss_bytes: rss,
        violation: tap.violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(scheduler: SchedulerKind, flow_links: bool) -> ScaleSpec {
        ScaleSpec {
            seed: 3,
            n_servers: 2,
            logical_clients: 5_000,
            cohort_size: 100,
            dim: 4,
            horizon: SimTime::from_secs(10),
            scheduler,
            flow_links,
            codec: None,
        }
    }

    #[test]
    fn scale_run_is_oracle_green_and_makes_progress() {
        let stats = run_scale(&small_spec(SchedulerKind::Wheel, true), 5_000_000);
        assert!(stats.violation.is_none(), "{:?}", stats.violation);
        assert_eq!(stats.logical_clients, 5_000);
        assert_eq!(stats.actors, 50);
        assert!(stats.updates_processed > 0, "no training happened");
        assert!(stats.events > 0);
    }

    #[test]
    fn scale_runs_are_deterministic_across_schedulers() {
        // Virtual-time results (events, end time, updates) must not depend
        // on the queue implementation; only wall-clock stats may differ.
        let a = run_scale(&small_spec(SchedulerKind::Heap, false), 5_000_000);
        let b = run_scale(&small_spec(SchedulerKind::Wheel, false), 5_000_000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.updates_processed, b.updates_processed);
    }

    #[test]
    fn coded_scale_run_is_oracle_green_and_compresses() {
        let spec = ScaleSpec {
            codec: Some(CodecConfig::paper_pipeline()),
            // At the test default of dim 4 the codec's fixed header alone
            // outweighs the dense message and the byte oracle (rightly)
            // fires; compression needs a model worth compressing.
            dim: 32,
            ..small_spec(SchedulerKind::Wheel, true)
        };
        let stats = run_scale(&spec, 5_000_000);
        assert!(stats.violation.is_none(), "{:?}", stats.violation);
        // A clean coded run with processed updates implies decoded codec
        // traffic, compressing byte ledgers, and counter↔ledger
        // reconciliation — all enforced event by event (and at the end) by
        // the codec-bytes oracle the run just passed.
        assert!(stats.updates_processed > 0, "no training happened");
    }

    #[test]
    fn last_cohort_takes_the_remainder() {
        let spec = ScaleSpec {
            logical_clients: 1_050,
            cohort_size: 100,
            ..small_spec(SchedulerKind::Wheel, false)
        };
        assert_eq!(spec.n_cohorts(), 11);
        let (sim, targets) = build_scale(&spec);
        assert_eq!(targets.len(), 11);
        assert_eq!(sim.num_nodes(), 2 + 11);
    }
}
