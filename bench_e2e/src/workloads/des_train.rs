//! `des_train_4s100c`: the paper-shaped run. `Scenario::cifar(100, 4,
//! seed)` under Spyker on the AWS latency matrix with held-out probes
//! every 500 virtual ms, wired by hand exactly as
//! `experiments::runner::build_simulation` does so the actors and
//! trainers can be wrapped for tracing.
//!
//! Why it is here: real local training does the work, so this is the
//! workload a `tensor`/`models` gain must show on — and nowhere else.

use std::ops::ControlFlow;
use std::time::Instant;

use spyker_core::client::FlClient;
use spyker_core::deploy::{clients_of_servers, even_assignment, server_region};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_experiments::{default_spyker_config, run_algorithm, Algorithm, RunOptions, Scenario};
use spyker_simnet::{NetworkConfig, Node, SimTime, Simulation};

use super::{Reference, Rep};
use crate::trace::{self, Name, Role};

const SERVERS: usize = 4;
const CLIENTS: usize = 100;
/// Virtual horizon of one repetition (≈ 1.3 s of wall time).
const HORIZON: SimTime = SimTime::from_secs(30);
const PROBE_INTERVAL: SimTime = SimTime::from_millis(500);
const EVAL_MAX: usize = 200;
/// Held-out accuracy that counts as "trained" for time-to-target.
const TARGET_ACCURACY: f64 = 0.45;
/// Parameters of the `[192, 32, 10]` MLP.
pub const DIM: usize = 192 * 32 + 32 + 32 * 10 + 10;

/// The same scenario through `experiments::run_algorithm`.
pub fn reference(seed: u64) -> Reference {
    let scenario = Scenario::cifar(CLIENTS, SERVERS, seed);
    let opts = RunOptions::standard().with_max_time(HORIZON);
    let result = run_algorithm(Algorithm::Spyker, &scenario, &opts);
    Reference {
        updates_processed: result.metrics.counter("updates.processed"),
        events: None,
        quality: result.final_metric(),
    }
}

fn server_params(nodes: &[Box<dyn Node<FlMsg>>]) -> Vec<&ParamVec> {
    nodes[..SERVERS]
        .iter()
        .map(|n| {
            n.as_any()
                .downcast_ref::<SpykerServer>()
                .expect("servers occupy the first node ids")
                .params()
        })
        .collect()
}

/// One repetition: build the scenario and the deployment, run to the
/// horizon, note when the target accuracy was first met.
pub fn rep(seed: u64, traced: bool) -> Rep {
    let t0 = Instant::now();
    if traced {
        trace::start(t0);
    }
    let scenario = Scenario::cifar(CLIENTS, SERVERS, seed);
    let scenario_build_s = t0.elapsed().as_secs_f64();

    let config = default_spyker_config(&scenario);
    let assignment = even_assignment(CLIENTS, SERVERS);
    let mut sim = Simulation::new(NetworkConfig::aws(), seed);
    let server_nodes: Vec<usize> = (0..SERVERS).collect();
    for (i, clients) in clients_of_servers(&assignment, SERVERS)
        .into_iter()
        .enumerate()
    {
        let server = SpykerServer::new(
            i,
            server_nodes.clone(),
            clients,
            scenario.init_params(),
            config.clone(),
        );
        sim.add_node(
            trace::node(Box::new(server), Role::Server, traced),
            server_region(i),
        );
    }
    for (i, trainer) in scenario.trainers().into_iter().enumerate() {
        let client = FlClient::new(
            assignment[i],
            trace::trainer(trainer, traced),
            config.client_epochs,
            scenario.delays()[i],
        );
        sim.add_node(
            trace::node(Box::new(client), Role::Client, traced),
            server_region(assignment[i]),
        );
    }
    let evaluator = scenario.evaluator(EVAL_MAX);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut quality = None;
    let mut time_to_target_s = None;
    let timed = Instant::now();
    let report = {
        let _run = trace::span(Name::Loop);
        sim.run_with_probe(HORIZON, PROBE_INTERVAL, |ctx| {
            let _probe = trace::span(Name::Probe);
            // The "global model" is the uniform average of the server
            // models, as in `experiments::runner::run_algorithm`.
            let weighted: Vec<(&ParamVec, f64)> = server_params(ctx.nodes())
                .into_iter()
                .map(|p| (p, 1.0))
                .collect();
            let global = ParamVec::weighted_mean(&weighted);
            let metric = {
                let _eval = trace::span(Name::Eval);
                evaluator.evaluate(&global).metric
            };
            let time = ctx.time();
            ctx.metrics().record("metric", time, metric);
            quality = Some(metric);
            if time_to_target_s.is_none() && metric >= TARGET_ACCURACY {
                time_to_target_s = Some(timed.elapsed().as_secs_f64());
            }
            ControlFlow::Continue(())
        })
    };
    let wall_s = timed.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    if time_to_target_s.is_none() {
        problems.push(format!(
            "held-out accuracy never reached {TARGET_ACCURACY} (final {quality:?})"
        ));
    }
    if !server_params(sim.nodes()).iter().all(|p| p.is_finite()) {
        problems.push("a server model is not finite".to_string());
    }
    Rep {
        setup_s,
        setup_parts: vec![("experiments.scenario_build_s", scenario_build_s)],
        wall_s,
        events: report.events_processed,
        quality,
        time_to_target_s,
        rtt_ms: Vec::new(),
        metrics: sim.into_metrics(),
        problems,
        spans: vec![trace::finish()],
    }
}
