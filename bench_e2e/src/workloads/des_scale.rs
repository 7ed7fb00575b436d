//! `des_scale_100k`: `simtest::scale::ScaleSpec::ci_smoke()` — 100 000
//! logical clients as 782 cohort actors on 4 servers, dim 8, timer wheel,
//! flow-shared links — with the whole oracle suite run after every event
//! from the benchmark's own tap (`run_scale`'s tap is private).
//!
//! Why it is here: training and model math are negligible, so per-event
//! overhead is everything: the `simnet` wheel and flow re-plans, the
//! `core` handlers, the `obs` counters and the `simtest` oracles. It also
//! uses `simnet` differently from the other DES workloads (flow-shared
//! links, 786 nodes instead of at most 104).

use std::ops::ControlFlow;
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
use spyker_simnet::{
    EventTap, Metrics, NetworkConfig, Node, NodeId, SimTime, Simulation, TapCtx, TapKind,
};
use spyker_simtest::oracle::{default_suite, EventInfo, Oracle, OracleCtx};
use spyker_simtest::scale::{run_scale, ScaleSpec};

use super::{Reference, Rep};
use crate::trace::{self, Name, Role};

/// Model dimension of the mean-target task.
pub const DIM: usize = 8;

fn spec(seed: u64) -> ScaleSpec {
    ScaleSpec {
        seed,
        ..ScaleSpec::ci_smoke()
    }
}

/// The same spec through `simtest::scale::run_scale`.
pub fn reference(seed: u64) -> Reference {
    let stats = run_scale(&spec(seed), u64::MAX);
    assert!(stats.violation.is_none(), "{:?}", stats.violation);
    Reference {
        updates_processed: stats.updates_processed,
        events: Some(stats.events),
        quality: None,
    }
}

/// What the oracles need to know about the deployment.
struct Shape<'a> {
    server_ids: &'a [NodeId],
    n_clients: usize,
    targets: &'a [f32],
}

impl Shape<'_> {
    fn ctx<'c>(
        &'c self,
        time: SimTime,
        nodes: &'c [Box<dyn Node<FlMsg>>],
        metrics: &'c Metrics,
        event: Option<EventInfo>,
    ) -> OracleCtx<'c> {
        OracleCtx {
            time,
            nodes,
            server_nodes: self.server_ids,
            metrics,
            n_clients: self.n_clients,
            event,
            clean: true,
            byzantine_free: true,
            targets: self.targets,
            budget_exhausted: false,
            codec: None,
        }
    }
}

/// The first oracle of `oracles` that `check` fails on, as a message.
fn first_violation(
    oracles: &mut [Box<dyn Oracle>],
    mut check: impl FnMut(&mut dyn Oracle) -> Result<(), String>,
) -> Option<String> {
    oracles.iter_mut().find_map(|o| {
        check(o.as_mut())
            .err()
            .map(|m| format!("{}: {m}", o.name()))
    })
}

/// Runs the oracle suite after every event, as `run_scale`'s tap does.
struct OracleTap<'a> {
    oracles: Vec<Box<dyn Oracle>>,
    events: u64,
    violation: Option<String>,
    pending_token_to: Option<NodeId>,
    shape: Shape<'a>,
}

impl EventTap<FlMsg> for OracleTap<'_> {
    fn on_deliver(
        &mut self,
        _from: NodeId,
        to: NodeId,
        msg: &FlMsg,
        _ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        self.pending_token_to = matches!(msg, FlMsg::TokenPass(_)).then_some(to);
        ControlFlow::Continue(())
    }

    fn after_event(
        &mut self,
        node: NodeId,
        kind: TapKind,
        ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        let _s = trace::span(Name::Oracle);
        self.events += 1;
        let token_delivered =
            kind == TapKind::Deliver && self.pending_token_to.take() == Some(node);
        let event = EventInfo {
            node,
            kind,
            token_delivered,
        };
        let octx = self
            .shape
            .ctx(ctx.time(), ctx.nodes(), ctx.metrics(), Some(event));
        self.violation = first_violation(&mut self.oracles, |o| o.check(&octx));
        match self.violation {
            Some(_) => ControlFlow::Break(()),
            None => ControlFlow::Continue(()),
        }
    }
}

/// One repetition: the cohort deployment of `simtest::scale::build_scale`
/// wired by hand (so the actors can be wrapped), run to the horizon under
/// the oracle tap, then the suite's end-of-run pass.
pub fn rep(seed: u64, traced: bool) -> Rep {
    let t0 = Instant::now();
    if traced {
        trace::start(t0);
    }
    let spec = spec(seed);
    let n_cohorts = spec.n_cohorts();
    // Same draws, in the same order, as `build_scale`; `reference` is the
    // check that they stay the same.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_e000_0000_0001);
    let targets: Vec<f32> = (0..n_cohorts)
        .map(|_| rng.gen_range(-1.0..=1.0f32))
        .collect();
    let delays: Vec<SimTime> = (0..n_cohorts)
        .map(|_| SimTime::from_millis(rng.gen_range(50..=500u64)))
        .collect();
    let net = NetworkConfig::aws().with_flow_shared_links();
    let mut sim = Simulation::new(net, seed).with_scheduler(spec.scheduler);
    let config = SpykerConfig::paper_defaults(n_cohorts, spec.n_servers);
    let assignment = even_assignment(n_cohorts, spec.n_servers);
    let server_ids: Vec<NodeId> = (0..spec.n_servers).collect();
    for (i, clients) in clients_of_servers(&assignment, spec.n_servers)
        .into_iter()
        .enumerate()
    {
        let server = SpykerServer::new(
            i,
            server_ids.clone(),
            clients,
            ParamVec::zeros(DIM),
            config.clone(),
        );
        sim.add_node(
            trace::node(Box::new(server), Role::Server, traced),
            server_region(i),
        );
    }
    let mut remaining = spec.logical_clients;
    for i in 0..n_cohorts {
        let size = remaining.min(spec.cohort_size);
        remaining -= size;
        let trainer = Box::new(MeanTargetTrainer::new(vec![targets[i]; DIM], 8));
        let client = FlClient::new(
            assignment[i],
            trace::trainer(trainer, traced),
            config.client_epochs,
            delays[i],
        );
        sim.add_node(
            trace::node(
                Box::new(CohortClient::new(client, size)),
                Role::Client,
                traced,
            ),
            server_region(assignment[i]),
        );
    }
    let mut tap = OracleTap {
        oracles: default_suite(),
        events: 0,
        violation: None,
        pending_token_to: None,
        shape: Shape {
            server_ids: &server_ids,
            n_clients: n_cohorts,
            targets: &targets,
        },
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let timed = Instant::now();
    let report = {
        let _run = trace::span(Name::Loop);
        sim.run_with_tap(spec.horizon, &mut tap)
    };
    let wall_s = timed.elapsed().as_secs_f64();

    if tap.violation.is_none() {
        let octx = tap.shape.ctx(sim.now(), sim.nodes(), sim.metrics(), None);
        tap.violation = first_violation(&mut tap.oracles, |o| o.at_end(&octx));
    }
    let mut problems = Vec::new();
    if let Some(v) = &tap.violation {
        problems.push(format!("oracle violation after {} events: {v}", tap.events));
    }
    if tap.events != report.events_processed {
        problems.push(format!(
            "the tap saw {} events, the run loop reports {}",
            tap.events, report.events_processed
        ));
    }
    Rep {
        setup_s,
        setup_parts: Vec::new(),
        wall_s,
        events: report.events_processed,
        quality: None,
        time_to_target_s: None,
        rtt_ms: Vec::new(),
        metrics: sim.into_metrics(),
        problems,
        spans: vec![trace::finish()],
    }
}
